"""End-to-end mortality-surface analysis.

Loads a year-by-age mortality rate matrix (pass a dense CSV path as the
first argument; otherwise a synthetic surface with flu-like outlier years
and missing old-age cells stands in), applies the log2(x + 1/2) transform,
fills missing cells from a rank-one SVD fit of the observed ones, reads the energy spectrum, and compares the first
left vector of the robust fit against the plain SVD at the outlier years.
"""

import sys

import numpy as np

from robrsvd import fit
from robrsvd.dataio import MatrixFile, energy_percentages, load, log_transform
from robrsvd.matrices import ObservedMatrix


def synthetic_mortality():
    """Year x age surface with two outlying periods and masked old-age cells."""
    rng = np.random.default_rng(5)
    years = np.arange(1908.0, 2008.0)
    ages = np.arange(0.0, 111.0)
    # falling mortality across years, U-shaped across age
    year_trend = np.linspace(1.0, 0.45, years.size)[:, None]
    age_shape = 0.08 + 0.25 * np.exp(-ages / 8.0) + 0.5 * (ages / 110.0) ** 3
    rates = year_trend * age_shape[None, :] * np.exp(rng.normal(0, 0.04, (years.size, ages.size)))
    # pandemic year and a war period lift mortality across wide age ranges
    rates[years == 1918] *= 2.8
    for year in (1936, 1937, 1938, 1939):
        rates[years == year, 20:] *= 1.8
    mask = np.ones_like(rates, dtype=bool)
    old = ages >= 100
    mask[:, old] = rng.random((years.size, old.sum())) > 0.35
    return ObservedMatrix(np.where(mask, rates, 0.0), mask, years, ages)


if len(sys.argv) > 1:
    X_raw = load(MatrixFile(sys.argv[1]))
    print(f"loaded {sys.argv[1]}: {X_raw.shape[0]} years x {X_raw.shape[1]} age groups")
else:
    X_raw = synthetic_mortality()
    print("no file given; using a synthetic mortality-like surface "
          f"({X_raw.shape[0]} years x {X_raw.shape[1]} age groups, "
          f"{(~X_raw.mask).sum()} missing cells)")

X = log_transform(X_raw)

# energy spectrum with the missing cells at the rank-one SVD fit
filled = np.where(X.mask, X.values, fit(X, "svd").reconstruction())
energy = energy_percentages(filled, 3)
print(f"\nenergy explained by leading components: "
      + ", ".join(f"{e:.1f}%" for e in energy))

years = X.row_grid.astype(int)
outlier_years = np.isin(years, (1918, 1936, 1937, 1938, 1939))

print("\nfirst left vector at the outlier years, deviation from a 7-year moving average:")
for method in ("svd", "robrsvd"):
    decomp = fit(X, method=method, rank=2)
    u = decomp.components[0].u
    u = u if u.sum() >= 0 else -u
    moving = np.convolve(u, np.ones(7) / 7.0, mode="same")
    dev = np.abs(u - moving)[outlier_years].sum()
    print(f"  {method:8s} total deviation {dev:.5f}")
print("the robust first component rides through the outlying years; "
      "the plain SVD bends toward them")
