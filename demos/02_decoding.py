"""Minimum-distance decoding, two ways.

The naive decoder measures the subspace distance to every codeword.  The
projection decoder precomputes the coordinates of the projection onto each
codeword's dual, stacked side by side, and reads every distance off one
product and one rank per codeword.  On LCD codes the two agree verdict for
verdict.
"""
from lcdsubspace.codes import (SubspaceCode, decode_naive, decode_projection,
                               is_lcd_subspace_code, params,
                               classical_lcd_check)
from lcdsubspace.gf import field_new
from lcdsubspace.subspaces import span

f2 = field_new(2)
code = SubspaceCode([
    span(f2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]]),
    span(f2, 4, [[1, 1, 1, 0], [0, 0, 0, 1]]),
    span(f2, 4, [[1, 1, 0, 1], [0, 0, 1, 0]]),
])
print("code:", code)
print("params:", params(code))
print("LCD as a subspace code?", bool(is_lcd_subspace_code(code)))

received = span(f2, 4, [[1, 1, 1, 0]])
a = decode_naive(code, received)
b = decode_projection(code, received)
print("\nreceived", received.basis.tolist())
print("  naive     :", a)
print("  projection:", b)
assert a == b

# a received word sitting exactly between two codewords must not decode
f5 = field_new(5)
tie_code = SubspaceCode([span(f5, 2, [[1, 1]]), span(f5, 2, [[1, 0]])])
tie = decode_naive(tie_code, [[1, 3]])
print("\nengineered tie over GF(5):", tie)
assert tie.status == "failure"

# the classical generator-matrix test, for comparison
G = [[1, 0, 1], [0, 1, 1]]
print("\nclassical det(G G^T) test over GF(2) on", G, "->",
      classical_lcd_check(f2, G))
print("same rows over GF(3) ->", classical_lcd_check(field_new(3), G))
