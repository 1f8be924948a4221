"""Exact-arithmetic certificate verification for mixed-integer programs,
with a reference certifying solver and a brute-force oracle."""
