"""Ad affect recognition toolkit.

Agreement statistics, content and EEG feature extraction, shallow/MTL/CNN
classifiers, decision fusion, a cross-validation harness, and a GA-based
ad-insertion scheduler, all runnable at desk scale on synthetic data.

The package itself imports nothing: the names below are plain constants,
so the command-line parser can offer them as choices without numpy.
"""

__version__ = "0.1.0"

#: Temporal windows of a descriptor series (media.temporal_window) and of an
#: EEG epoch (eeg.vectorize): the whole span, the first or last 30 s, the last 10 s.
WINDOW_MODES = ("all", "first30", "last30", "last10")

#: Classifier kinds, in the order evaluation registers their learners.
MODEL_KINDS = ("lda", "linear_svm", "rbf_svm", "mtl", "cnn")
