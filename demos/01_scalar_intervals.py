"""Midpoint-radius intervals in one minute.

Every quantity is a disk <mid, rad>: the set of numbers within rad of mid.
Arithmetic widens results outward so the exact value of any member
computation is always inside, whatever floating point does.  A scalar is a
1 x 1 interval matrix.
"""

import numpy as np

from sylvenc import IMatrix, im_matmul

x = IMatrix([[2.0]], [[0.1]])
y = IMatrix([[3.0]], [[0.2]])

prod = im_matmul(x, y)
print("x          = <%g, %g>" % (x.mid[0, 0], x.rad[0, 0]))
print("y          = <%g, %g>" % (y.mid[0, 0], y.rad[0, 0]))
print("x * y      = <%g, %.17g>" % (prod.mid[0, 0], prod.rad[0, 0]))
print("Mag(x)     =", x.mag()[0, 0], "  (largest magnitude of any member)")

# every sampled member product stays inside the product disk
rng = np.random.default_rng(0)
for _ in range(1000):
    a = x.mid + x.rad * rng.uniform(-1, 1)
    b = y.mid + y.rad * rng.uniform(-1, 1)
    assert prod.contains_point(a * b)
print("1000 sampled member products contained: True")

# the same guarantee holds for matrix products
X = IMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]), np.full((2, 2), 0.01))
Y = IMatrix(np.array([[3.0, 0.0], [1.0, 1.0]]), np.full((2, 2), 0.02))
P = im_matmul(X, Y)
for _ in range(200):
    a = X.mid + X.rad * rng.uniform(-1, 1, size=(2, 2))
    b = Y.mid + Y.rad * rng.uniform(-1, 1, size=(2, 2))
    assert P.contains_point(a @ b)
print("200 sampled member matrix products contained: True")
print("product radii:\n", P.rad)
