"""hashbound: learning-to-hash with sphere-packing-derived loss margins.

The package derives provably extremal inner-product margins for a pairwise
hinge loss from exact packing-bound arithmetic, trains a small MLP encoder
with hand-rolled backprop to emit binary codes, and evaluates retrieval with
an exact Hamming-distance ranking engine.
"""

__version__ = "0.1.0"
