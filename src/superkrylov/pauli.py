"""Pauli-string Hamiltonians and dense assembly.

Two Hamiltonian families are provided:

* Heisenberg exchange models with nonnegative couplings, whose top energy
  is the sum of the couplings (the fully polarized state saturates it).
* Bipartite-graph YY/ZZ/X models whose spectrum is symmetric about zero,
  certified by the operator W = prod_{V1} Y prod_{V2} Z which anticommutes
  with every term.

Convention: qubit 0 is the leftmost Kronecker factor, so a label "XZI"
assembles as X (x) Z (x) I, and qubit q is bit n-1-q of a basis index.
All quantities downstream are basis-invariant traces and overlaps, so any
consistent convention would do; this one is frozen for reproducibility.

With the masks flip = bits of the X and Y factors and phase = bits of the
Y and Z factors, a word sends basis state |r> to

    i^{#Y} (-1)^{popcount(r & phase)} |r ^ flip>,

so it fills one permuted diagonal of the matrix and costs O(N) to add.
Coefficients are real, so a sum of words whose Y counts are all even
(both families above) is a real symmetric matrix and assembles as
float64; any odd-Y word makes it complex128.

A sum whose interaction graph splits, such as the bipartite model built
from the edges (i, n+i) alone, is a sum of factors on disjoint qubit sets
(``qubit_factors``); its spectrum is the Kronecker sum of theirs, so no
2^n x 2^n matrix is needed to diagonalize it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dynamics import _is_integer
from .errors import InvalidInput

MAX_QUBITS_DENSE = 12  # N = 4096, the desk-scale cap for dense assembly

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check_qubits(name: str, n, least: int) -> None:
    """Reject a qubit count that is not an integer (``_is_integer``) >= least."""
    if not (_is_integer(n) and n >= least):
        raise InvalidInput(f"{name} = {n!r} must be an integer >= {least}")


class HamiltonianClass(enum.Enum):
    """Ground-energy post-processing family."""

    CLASS1_KNOWN_TOP = "class1-known-top"
    CLASS2_SYMMETRIC = "class2-symmetric"
    GENERIC = "generic"


@dataclass(frozen=True)
class PauliString:
    """A single weighted Pauli word, e.g. 0.5 * XYI."""

    label: str
    coefficient: float

    def __post_init__(self):
        if not self.label or any(c not in PAULI_MATRICES for c in self.label):
            raise InvalidInput(f"Pauli label {self.label!r} must be a word over IXYZ")
        if np.iscomplexobj(self.coefficient):
            raise InvalidInput(
                f"coefficient {self.coefficient!r} is complex; a Pauli sum "
                "is Hermitian only with real weights"
            )
        if not np.isfinite(self.coefficient):
            raise InvalidInput(f"coefficient {self.coefficient!r} must be finite")


@dataclass(frozen=True)
class PauliHamiltonian:
    """Weighted Pauli-string sum with a class tag for post-processing."""

    n_qubits: int
    terms: tuple[PauliString, ...]
    class_tag: HamiltonianClass = HamiltonianClass.GENERIC
    top_energy: float | None = None

    def __post_init__(self):
        _check_qubits("n_qubits", self.n_qubits, 1)
        for t in self.terms:
            if len(t.label) != self.n_qubits:
                raise InvalidInput(
                    f"label {t.label!r} does not match n_qubits={self.n_qubits}"
                )


def _single_site_label(n: int, ops: dict[int, str]) -> str:
    chars = ["I"] * n
    for idx, op in ops.items():
        chars[idx] = op
    return "".join(chars)


def build_heisenberg(n: int, couplings: dict[tuple[int, int], float]) -> PauliHamiltonian:
    """Exchange model sum_{j<k} J_jk (XX + YY + ZZ) with J_jk >= 0.

    The top energy is sum_{j<k} J_jk, attained by the fully polarized
    state, so the result carries the class-1 tag.
    """
    _check_qubits("n", n, 2)
    terms = []
    top = 0.0
    for (j, k), coeff in sorted(couplings.items()):
        if not (0 <= j < k <= n - 1):
            raise InvalidInput(f"coupling key ({j},{k}) out of range for n={n}")
        if coeff < 0:
            raise InvalidInput(f"coupling J_{j}{k} = {coeff} must be nonnegative")
        top += coeff
        if coeff == 0:
            continue
        for op in ("X", "Y", "Z"):
            terms.append(PauliString(_single_site_label(n, {j: op, k: op}), coeff))
    return PauliHamiltonian(
        n_qubits=n,
        terms=tuple(terms),
        class_tag=HamiltonianClass.CLASS1_KNOWN_TOP,
        top_energy=top,
    )


def heisenberg_chain(n: int, seed: int | None = None) -> PauliHamiltonian:
    """Nearest-neighbour chain with J_{b,b+1} drawn uniformly from (0, 1)."""
    _check_qubits("n", n, 2)
    rng = np.random.default_rng(seed)
    couplings = {(b, b + 1): float(rng.uniform(0.0, 1.0)) for b in range(n - 1)}
    return build_heisenberg(n, couplings)


def build_bipartite(
    n_per_side: int,
    Jy: dict[tuple[int, int], float],
    Jz: dict[tuple[int, int], float],
    h: dict[int, float],
) -> PauliHamiltonian:
    """Bipartite YY/ZZ/X model on V1 = {0..n-1}, V2 = {n..2n-1}.

    Every edge must connect the two sides: the symmetry operator
    W = prod_{V1} Y prod_{V2} Z then anticommutes with all terms, forcing
    the spectrum to be symmetric about zero.
    """
    _check_qubits("n_per_side", n_per_side, 1)
    n = 2 * n_per_side

    def check_edge(j, k):
        if not (0 <= j < n and 0 <= k < n):
            raise InvalidInput(f"edge vertex out of range: ({j},{k})")
        if (j < n_per_side) == (k < n_per_side):
            raise InvalidInput(f"edge ({j},{k}) stays on one side of the "
                               "bipartition")

    terms = []
    for (j, k), coeff in sorted(Jy.items()):
        check_edge(j, k)
        if coeff != 0:
            terms.append(PauliString(_single_site_label(n, {j: "Y", k: "Y"}), coeff))
    for (j, k), coeff in sorted(Jz.items()):
        check_edge(j, k)
        if coeff != 0:
            terms.append(PauliString(_single_site_label(n, {j: "Z", k: "Z"}), coeff))
    for l, coeff in sorted(h.items()):
        if not 0 <= l < n:
            raise InvalidInput(f"field vertex {l} out of range")
        if coeff != 0:
            terms.append(PauliString(_single_site_label(n, {l: "X"}), coeff))
    return PauliHamiltonian(
        n_qubits=n,
        terms=tuple(terms),
        class_tag=HamiltonianClass.CLASS2_SYMMETRIC,
    )


def pauli_word_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli word; qubit 0 is the leftmost factor."""
    out = np.array([[1.0]], dtype=complex)
    for c in label:
        out = np.kron(out, PAULI_MATRICES[c])
    return out


def assemble_dense(ham: PauliHamiltonian) -> np.ndarray:
    """Assemble the dense 2^n x 2^n Hermitian matrix of a Pauli sum.

    Each word adds coefficient * i^{#Y} (-1)^{popcount(r & phase)} at
    (r ^ flip, r) for every basis index r (see the module docstring), so
    a term costs O(N).  The result is float64 when every word has an even
    number of Y factors and complex128 otherwise.
    """
    if ham.n_qubits > MAX_QUBITS_DENSE:
        raise InvalidInput(
            f"n_qubits={ham.n_qubits} exceeds dense cap {MAX_QUBITS_DENSE}"
        )
    n = ham.n_qubits
    r = np.arange(2**n)
    parity = np.zeros_like(r)  # popcount(r) mod 2, by XOR-folding the bits
    for b in range(n):
        parity ^= (r >> b) & 1
    bits = [1 << (n - 1 - q) for q in range(n)]
    n_y = [t.label.count("Y") for t in ham.terms]
    real = all(c % 2 == 0 for c in n_y)
    out = np.zeros((r.size, r.size), dtype=float if real else complex)
    for term, c in zip(ham.terms, n_y):
        flip = sum(b for b, p in zip(bits, term.label) if p in "XY")
        phase = sum(b for b, p in zip(bits, term.label) if p in "YZ")
        weight = term.coefficient * (1, 1j, -1, -1j)[c % 4]
        out[r ^ flip, r] += weight * (1 - 2 * parity[r & phase])
    return out


def qubit_factors(ham: PauliHamiltonian) -> tuple[PauliHamiltonian, ...]:
    """Split H into sums on disjoint qubit sets, H = sum_c H_c.

    A union-find over the qubits each word acts on (its non-I letters)
    groups them into the connected components of the interaction graph;
    each factor holds the words of one component, relabelled on its own
    qubits in ascending order, and the factors come in the order of their
    lowest qubit.  All-I words (a constant shift) go to the first factor,
    and a qubit no word touches is a factor with no terms.  The factors
    commute, so the spectrum of H is the Kronecker sum of theirs.  When
    the graph is connected the result is ``(ham,)`` itself.
    """
    n = ham.n_qubits
    parent = list(range(n))

    def root(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    supports = [[q for q, p in enumerate(t.label) if p != "I"]
                for t in ham.terms]
    for support in supports:
        for q in support[1:]:
            parent[root(q)] = root(support[0])
    roots = [root(q) for q in range(n)]
    qubits: dict[int, list[int]] = {}
    for q, r in enumerate(roots):
        qubits.setdefault(r, []).append(q)
    if len(qubits) == 1:
        return (ham,)
    words: dict[int, list[PauliString]] = {r: [] for r in qubits}
    for term, support in zip(ham.terms, supports):
        r = roots[support[0]] if support else roots[0]
        label = "".join(term.label[q] for q in qubits[r])
        words[r].append(PauliString(label, term.coefficient))
    return tuple(PauliHamiltonian(len(qubits[r]), tuple(words[r]))
                 for r in qubits)
