"""The ``sum()`` of Python 3.12 and later, written in Python, kept as an
oracle that output bytes do not depend on the Python version.

From 3.12 on, CPython's ``sum()`` adds floats with Neumaier's compensated
summation, so the same floats can sum to another last bit than the left fold
that 3.11 and earlier compute.  Here, as in CPython, ints are summed exactly
until the first term that is not an int.  From a float on, each int or float
term is added with compensation, and the compensation is added once at the
end; a term of another type there is not modelled and raises TypeError.
"""

import math


def compensated_sum(iterable, /, start=0):
    items = iter(iterable)
    total = start
    if isinstance(total, int):
        for item in items:
            total = total + item
            if not isinstance(total, int):
                break
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    compensation = 0.0
    for item in items:
        if type(item) is not float and not isinstance(item, int):
            raise TypeError(f"a {type(item).__name__} term after a float is not modelled")
        x = float(item)
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total
