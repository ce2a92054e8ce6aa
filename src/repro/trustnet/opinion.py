"""Subjective-logic opinions and their two core operators.

An opinion ω = (b, d, u, a): belief, disbelief, uncertainty summing to
one, plus a base rate *a* (the prior probability in the absence of
evidence).  The *probability expectation* is ``E = b + a·u``.

Operators (Jøsang's notation):

* **discounting** ``ω_A:B ⊗ ω_B:X`` — A's trust in B attenuates B's
  opinion about X; the less A trusts B, the more of B's opinion
  dissolves into uncertainty.  This is the algebra behind the paper's
  doctor → specialist example.
* **consensus** ``ω_A:X ⊕ ω_B:X`` — fuse two *independent* opinions
  about X, reducing uncertainty.

Evidence mapping: ``Opinion.from_evidence(r, s)`` converts r positive
and s negative observations via b = r/(r+s+W), d = s/(r+s+W),
u = W/(r+s+W) with non-informative prior weight W = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError

_EPS = 1e-9
_HIGH = 1.0 + _EPS
#: Non-informative prior weight (two hidden observations).
PRIOR_WEIGHT = 2.0


@dataclass(frozen=True)
class Opinion:
    """A subjective-logic opinion (b, d, u, a)."""

    belief: float
    disbelief: float
    uncertainty: float
    base_rate: float = 0.5

    def __post_init__(self) -> None:
        b, d, u, a = self.belief, self.disbelief, self.uncertainty, self.base_rate
        total = b + d + u
        if (
            -_EPS <= b <= _HIGH and -_EPS <= d <= _HIGH
            and -_EPS <= u <= _HIGH and -_EPS <= a <= _HIGH
            and abs(total - 1.0) <= 1e-6
        ):
            return  # the happy path: every check below passes
        for name, value in [
            ("belief", b), ("disbelief", d), ("uncertainty", u), ("base_rate", a),
        ]:
            if not -_EPS <= value <= _HIGH:
                raise ConfigurationError(
                    f"opinion {name} must be in [0, 1], got {value}"
                )
        raise ConfigurationError(f"b + d + u must equal 1, got {total}")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def vacuous(base_rate: float = 0.5) -> "Opinion":
        """Total uncertainty: no evidence at all."""
        return Opinion(0.0, 0.0, 1.0, base_rate)

    @staticmethod
    def dogmatic(probability: float) -> "Opinion":
        """Zero uncertainty (an absolute, evidence-infinite stance)."""
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError("probability must be in [0, 1]")
        return Opinion(probability, 1.0 - probability, 0.0, 0.5)

    @staticmethod
    def from_evidence(
        positive: float, negative: float, base_rate: float = 0.5
    ) -> "Opinion":
        """Map (r, s) evidence counts to an opinion."""
        if positive < 0 or negative < 0:
            raise ConfigurationError("evidence counts must be >= 0")
        total = positive + negative + PRIOR_WEIGHT
        return Opinion(
            belief=positive / total,
            disbelief=negative / total,
            uncertainty=PRIOR_WEIGHT / total,
            base_rate=base_rate,
        )

    @staticmethod
    def from_rating(rating: float, confidence: float = 0.8) -> "Opinion":
        """A single graded rating as an opinion with given commitment."""
        if not 0.0 <= rating <= 1.0:
            raise ConfigurationError("rating must be in [0, 1]")
        if not 0.0 <= confidence <= 1.0:
            raise ConfigurationError("confidence must be in [0, 1]")
        return Opinion(
            belief=rating * confidence,
            disbelief=(1.0 - rating) * confidence,
            uncertainty=1.0 - confidence,
        )

    # -- queries -------------------------------------------------------------
    @property
    def expectation(self) -> float:
        """Probability expectation E = b + a*u."""
        return self.belief + self.base_rate * self.uncertainty

    def __str__(self) -> str:
        return (
            f"(b={self.belief:.3f}, d={self.disbelief:.3f}, "
            f"u={self.uncertainty:.3f}, a={self.base_rate:.2f})"
        )


def discount(trust: Opinion, opinion: Opinion) -> Opinion:
    """Jøsang's discounting operator ω_A:B ⊗ ω_B:X.

    A's belief in B scales B's committed mass; everything else becomes
    uncertainty.  Chains of weakly-trusted referrers rapidly approach
    the vacuous opinion — the conservatism transitive trust needs.
    """
    b = trust.belief * opinion.belief
    d = trust.belief * opinion.disbelief
    u = 1.0 - b - d
    return Opinion(b, d, u, opinion.base_rate)


def consensus(first: Opinion, second: Opinion) -> Opinion:
    """Jøsang's consensus operator ω_A:X ⊕ ω_B:X.

    Fusing independent opinions: agreement hardens (uncertainty
    shrinks), disagreement averages.  Two dogmatic opinions (u = 0)
    are averaged as the limit case.
    """
    u1, u2 = first.uncertainty, second.uncertainty
    kappa = u1 + u2 - u1 * u2
    if kappa < _EPS:
        # Dogmatic limit: average the committed masses.
        b = (first.belief + second.belief) / 2.0
        d = (first.disbelief + second.disbelief) / 2.0
        return Opinion(b, d, max(0.0, 1.0 - b - d), first.base_rate)
    b = (first.belief * u2 + second.belief * u1) / kappa
    d = (first.disbelief * u2 + second.disbelief * u1) / kappa
    u = (u1 * u2) / kappa
    # Numerical guard: renormalize tiny drift.
    total = b + d + u
    return Opinion(b / total, d / total, u / total, first.base_rate)
