"""Classifier heads (shallow, multitask, CNN) and their model files; import
names from the defining submodule."""
