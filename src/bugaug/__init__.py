"""bugaug: data augmentation and balancing for bug-localization training sets."""

__version__ = "0.2.0"
