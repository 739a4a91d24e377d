"""Ad affect recognition toolkit.

Agreement statistics, content and EEG feature extraction, shallow/MTL/CNN
classifiers, decision fusion, a cross-validation harness, and a GA-based
ad-insertion scheduler, all runnable at desk scale on synthetic data.
"""

__version__ = "0.1.0"
