"""Pre-optimisation implementations kept verbatim as test oracles.

Each module here is the code a performance PR replaced, moved out of
``src/`` unchanged so the replacement can be pinned against it
bit-for-bit (``np.array_equal``, not a tolerance).
"""
