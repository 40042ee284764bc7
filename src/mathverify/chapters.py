"""Chapter codes of the source compendium's 36 chapters.

Corpus records are keyed by these two-letter codes; reports print the
matching chapter numbers.
"""

CHAPTERS: dict[str, tuple[int, str]] = {
    "AL": (1, "Algebraic and Analytic Methods"),
    "AS": (2, "Asymptotic Approximations"),
    "NM": (3, "Numerical Methods"),
    "EF": (4, "Elementary Functions"),
    "GA": (5, "Gamma Function"),
    "EX": (6, "Exponential, Logarithmic, Sine, and Cosine Integrals"),
    "ER": (7, "Error Functions, Dawson's and Fresnel Integrals"),
    "IG": (8, "Incomplete Gamma and Related Functions"),
    "AI": (9, "Airy and Related Functions"),
    "BS": (10, "Bessel Functions"),
    "ST": (11, "Struve and Related Functions"),
    "PC": (12, "Parabolic Cylinder Functions"),
    "CH": (13, "Confluent Hypergeometric Functions"),
    "LE": (14, "Legendre and Related Functions"),
    "HY": (15, "Hypergeometric Function"),
    "GH": (16, "Generalized Hypergeometric Functions & Meijer G-Function"),
    "QH": (17, "q-Hypergeometric and Related Functions"),
    "OP": (18, "Orthogonal Polynomials"),
    "EL": (19, "Elliptic Integrals"),
    "TH": (20, "Theta Functions"),
    "MT": (21, "Multidimensional Theta Functions"),
    "JA": (22, "Jacobian Elliptic Functions"),
    "WE": (23, "Weierstrass Elliptic and Modular Functions"),
    "BP": (24, "Bernoulli and Euler Polynomials"),
    "ZE": (25, "Zeta and Related Functions"),
    "CM": (26, "Combinatorial Analysis"),
    "NT": (27, "Functions of Number Theory"),
    "MA": (28, "Mathieu Functions and Hill's Equation"),
    "LA": (29, "Lame Functions"),
    "SW": (30, "Spheroidal Wave Functions"),
    "HE": (31, "Heun Functions"),
    "PT": (32, "Painleve Transcendents"),
    "CW": (33, "Coulomb Functions"),
    "TJ": (34, "3j, 6j, 9j Symbols"),
    "FM": (35, "Functions of Matrix Argument"),
    "IC": (36, "Integrals with Coalescing Saddles"),
}

CHAPTER_CODES = frozenset(CHAPTERS)
