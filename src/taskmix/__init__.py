"""Meta-learning training engine over precomputed embedding features.

Episodic training of a PReLU multilayer classifier with exact or
first-order meta-gradients, within-task mixup and cross-task synthetic
blending as augmentations, a multi-seed evaluation protocol with macro-F1
reporting, and a synthetic task-family generator for desk-scale runs.
"""
