"""Truncated integer power series for graded dimension bookkeeping.

All arithmetic is exact over arbitrary-precision integers (coefficients of
enveloping-algebra Hilbert series overflow 64 bits well before degree 50
for three generators).  Division checks exactness; silent truncation bugs
are the main failure mode, so every operation validates truncation bounds.
"""

from __future__ import annotations

from math import comb


class HilbertSeries:
    """Integer power series truncated at degree ``truncation`` (inclusive)."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation: int):
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        coeffs = list(coeffs)
        if len(coeffs) < truncation + 1:
            coeffs = coeffs + [0] * (truncation + 1 - len(coeffs))
        self.coeffs = [int(c) for c in coeffs[: truncation + 1]]
        self.truncation = truncation

    @classmethod
    def one(cls, truncation: int) -> "HilbertSeries":
        return cls([1], truncation)

    @classmethod
    def zero(cls, truncation: int) -> "HilbertSeries":
        return cls([], truncation)

    @classmethod
    def from_graded_dims(cls, dims: list[int], truncation: int) -> "HilbertSeries":
        """PBW product formula: prod_i (1 - t^i)^(-dims[i-1]), truncated.

        ``dims[i-1]`` is the dimension of the weight-i component of a graded
        Lie algebra; the result is the Hilbert series of its enveloping
        algebra.
        """
        out = cls.one(truncation)
        for i, d in enumerate(dims, start=1):
            if i > truncation:
                break
            if d < 0:
                raise ValueError("negative graded dimension")
            if d == 0:
                continue
            # (1 - t^i)^(-d) = sum_k C(k+d-1, d-1) t^(i k)
            c = [0] * (truncation + 1)
            for k in range(0, truncation // i + 1):
                c[i * k] = comb(k + d - 1, d - 1)
            out = out * cls(c, truncation)
        return out

    def _check(self, other: "HilbertSeries"):
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: "HilbertSeries") -> "HilbertSeries":
        self._check(other)
        return HilbertSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.truncation
        )

    def __sub__(self, other: "HilbertSeries") -> "HilbertSeries":
        self._check(other)
        return HilbertSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.truncation
        )

    def __neg__(self) -> "HilbertSeries":
        return HilbertSeries([-a for a in self.coeffs], self.truncation)

    def __mul__(self, other):
        if isinstance(other, int):
            return HilbertSeries([other * a for a in self.coeffs], self.truncation)
        self._check(other)
        n = self.truncation
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                if b:
                    out[i + j] += a * b
        return HilbertSeries(out, n)

    __rmul__ = __mul__

    def shift(self, k: int) -> "HilbertSeries":
        """Multiply by t^k."""
        if k < 0:
            raise ValueError("negative shift")
        return HilbertSeries([0] * k + self.coeffs, self.truncation)

    def inverse(self) -> "HilbertSeries":
        if abs(self.coeffs[0]) != 1:
            raise ValueError("inverse requires unit constant term")
        n = self.truncation
        c0 = self.coeffs[0]
        out = [0] * (n + 1)
        out[0] = c0  # 1/1 = 1, 1/-1 = -1
        for k in range(1, n + 1):
            s = 0
            for i in range(1, k + 1):
                if i < len(self.coeffs) and self.coeffs[i]:
                    s += self.coeffs[i] * out[k - i]
            out[k] = -s * c0
        return HilbertSeries(out, n)

    def divide(self, other: "HilbertSeries") -> "HilbertSeries":
        """Exact division; raises if the quotient is not an integer series."""
        self._check(other)
        if other.coeffs[0] == 0:
            raise ZeroDivisionError("division by series with zero constant term")
        n = self.truncation
        out = [0] * (n + 1)
        b0 = other.coeffs[0]
        for k in range(n + 1):
            s = self.coeffs[k]
            for i in range(1, k + 1):
                if other.coeffs[i]:
                    s -= other.coeffs[i] * out[k - i]
            q, r = divmod(s, b0)
            if r != 0:
                raise ValueError(f"inexact series division at degree {k}")
            out[k] = q
        return HilbertSeries(out, n)

    def pbw_graded_dims(self) -> list[int]:
        """Invert the PBW product formula: recover dims with
        prod (1-t^i)^(-dims[i-1]) == self.  Requires constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("PBW inversion requires constant term 1")
        n = self.truncation
        dims = []
        partial = HilbertSeries.one(n)
        for i in range(1, n + 1):
            d = self.coeffs[i] - partial.coeffs[i]
            if d < 0:
                raise ValueError(f"series is not a PBW series at degree {i}")
            dims.append(d)
            if d:
                c = [0] * (n + 1)
                for k in range(0, n // i + 1):
                    c[i * k] = comb(k + d - 1, d - 1)
                partial = partial * HilbertSeries(c, n)
        return dims

    def __eq__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return self.truncation == other.truncation and self.coeffs == other.coeffs

    def __repr__(self):
        return f"HilbertSeries({self.coeffs}, N={self.truncation})"

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]
