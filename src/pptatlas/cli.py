"""Campaign runner, state persistence, and census reporting.

State records serialize to JSON with the matrix stored as [re, im] pairs so
that a round trip reproduces every entry bit-exactly. Census tables compare
the rank profiles found against the reference census of confirmed
three-qubit PPT rank combinations from prior numerical surveys.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULT, Tolerances
from .errors import BudgetExhausted, InvalidParameter, PptAtlasError
from .extremal import descend_to_extremal, is_extremal, rank_square_bound, separability_probe
from .invariants import InvariantFingerprint, fingerprint
from .prodvec import upb_standard, upb_state
from .qstate import PPT_INTERIOR, HermitianOperator, PptProfile, ppt_profile, random_ppt_state
from .rank4 import classify_type, construct_type1, construct_type2
from .ranksearch import RankTargetProblem, minimize_sq, solve_targets

RNG_ALGORITHM = "numpy-pcg64"

# Rank profiles of three-qubit PPT states confirmed by prior numerical
# surveys, keyed by sorted profile. Value True means extremal examples are
# known; False means only nonextremal states were found although the square
# sum bound would allow extremal ones.
REFERENCE_CENSUS: dict[str, bool] = {
    "1111": True, "2222": False, "3333": False, "4444": True,
    "5555": True, "5556": True, "5557": True, "5558": True,
    "5566": True, "5567": True, "5577": True, "5578": True,
    "5666": True, "5667": True, "5668": True, "5677": True,
    "5678": True, "5688": False, "5777": True, "5778": True,
    "5788": True, "6666": True, "6667": True, "6668": True,
    "6677": True, "6678": True, "6688": True, "6777": True,
    "6778": True, "6788": True, "6888": True, "7777": True,
    "7778": True, "7788": True, "7888": True, "8888": True,
}

# asymmetric combinations for which no PPT state was found at all
REPORTED_ABSENT = ("5568", "5588", "5888")


# ---------------------------------------------------------------------------
# record serialization
# ---------------------------------------------------------------------------

def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in mat]


def _matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


@dataclass
class StateRecord:
    """Persisted state with its classification and reproducibility metadata."""

    matrix: np.ndarray
    profile: PptProfile
    fingerprint: InvariantFingerprint
    extremal: bool
    classification: dict
    provenance: dict

    def state(self) -> HermitianOperator:
        return HermitianOperator(self.matrix)

    def to_dict(self) -> dict:
        return {
            "matrix": _matrix_to_json(self.matrix),
            "profile": {
                "ranks": list(self.profile.ranks),
                "margins": [float(m) for m in self.profile.margins],
                "tolerance": float(self.profile.tolerance),
                "is_ppt": bool(self.profile.is_ppt),
                "min_eigenvalues": [float(m) for m in self.profile.min_eigenvalues],
            },
            "fingerprint": {
                "i2": float(self.fingerprint.i2),
                "i41": float(self.fingerprint.i41),
                "i42": float(self.fingerprint.i42),
                "i43": float(self.fingerprint.i43),
                "i44": float(self.fingerprint.i44),
                "normalized_quartics": [float(q) for q in self.fingerprint.normalized_quartics],
                "degenerate": bool(self.fingerprint.degenerate),
                "trace": float(self.fingerprint.trace),
            },
            "extremal": bool(self.extremal),
            "classification": self.classification,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "StateRecord":
        prof = data["profile"]
        profile = PptProfile(
            ranks=tuple(prof["ranks"]),
            margins=tuple(prof["margins"]),
            tolerance=prof["tolerance"],
            is_ppt=prof["is_ppt"],
            min_eigenvalues=tuple(prof.get("min_eigenvalues", (0.0,) * 4)),
        )
        fp = data["fingerprint"]
        fprint = InvariantFingerprint(
            i2=fp["i2"], i41=fp["i41"], i42=fp["i42"], i43=fp["i43"], i44=fp["i44"],
            normalized_quartics=tuple(fp["normalized_quartics"]),
            degenerate=fp["degenerate"], trace=fp["trace"],
        )
        return cls(
            matrix=_matrix_from_json(data["matrix"]),
            profile=profile,
            fingerprint=fprint,
            extremal=data["extremal"],
            classification=data["classification"],
            provenance=data["provenance"],
        )

    @classmethod
    def from_json(cls, text: str) -> "StateRecord":
        return cls.from_dict(json.loads(text))


def annotate_state(state: HermitianOperator, provenance: dict,
                   tolerances: Tolerances = DEFAULT,
                   probe_rng: np.random.Generator | None = None,
                   probe_trials: int = 0) -> StateRecord:
    """Compute the full annotation block of a state.

    With probe_trials > 0 the separability probe runs and fills the
    `separable` field: True for a certified decomposition, False for entangled
    evidence without a caveat, None otherwise (an entangled verdict with its
    caveat set is not a decision). Without the probe, separability is only set
    for the decided cases (pure product or mixed extremal).
    """
    state = state.normalized()
    profile = ppt_profile(state, tolerances.rank_tol, tolerances.psd_tol)
    fprint = fingerprint(state, tolerances.i2_zero_tol)
    result = is_extremal(state, tolerances.rank_tol, tolerances.psd_tol,
                         tolerances.face_eig_window)
    rank4_type = None
    if profile.is_ppt and profile.ranks == (4, 4, 4, 4):
        rank4_type = classify_type(state, tolerances.rank_tol, tolerances.i2_zero_tol)
    separable: bool | None = None
    if result.extremal:
        separable = profile.ranks[0] == 1
    if probe_trials > 0 and separable is None:
        rng = probe_rng if probe_rng is not None else np.random.default_rng(0)
        probe = separability_probe(state, rng, n_trials=probe_trials,
                                   tol=tolerances.rank_tol, psd_tol=tolerances.psd_tol,
                                   window=tolerances.face_eig_window)
        if probe.verdict == "separable_evidence":
            separable = True
        elif probe.verdict == "entangled_evidence" and not probe.caveat:
            # with the caveat set the input may still be a mixture of
            # entangled extremal states, separable or not
            separable = False
    classification = {"separable": separable, "type": rank4_type}
    provenance = dict(provenance)
    provenance.setdefault("rng", RNG_ALGORITHM)
    provenance.setdefault("version", __version__)
    provenance.setdefault("tolerances", asdict(tolerances))
    return StateRecord(
        matrix=np.array(state.mat),
        profile=profile,
        fingerprint=fprint,
        extremal=result.extremal,
        classification=classification,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

@dataclass
class CensusRow:
    profile: str
    count: int
    extremal_count: int
    square_sum: int
    within_bound: bool
    reference_status: str


@dataclass
class CensusReport:
    rows: list[CensusRow] = field(default_factory=list)

    @classmethod
    def from_records(cls, records: list[StateRecord]) -> "CensusReport":
        groups: dict[str, list[StateRecord]] = {}
        for record in records:
            groups.setdefault(record.profile.key, []).append(record)
        rows = []
        for key in sorted(groups):
            members = groups[key]
            ranks = members[0].profile.sorted_ranks
            bound = rank_square_bound(ranks)
            if key in REPORTED_ABSENT:
                status = "reported_absent"
            elif key in REFERENCE_CENSUS:
                status = "confirmed" if REFERENCE_CENSUS[key] else "confirmed_nonextremal_only"
            else:
                status = "unreported"
            rows.append(CensusRow(
                profile=key,
                count=len(members),
                extremal_count=sum(1 for r in members if r.extremal),
                square_sum=bound.square_sum,
                within_bound=bound.admissible,
                reference_status=status,
            ))
        return cls(rows)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["profile", "count", "extremal_count", "square_sum",
                         "within_bound", "reference_status"])
        for row in self.rows:
            writer.writerow([row.profile, row.count, row.extremal_count,
                             row.square_sum, row.within_bound, row.reference_status])
        return buffer.getvalue()

    def check_bound(self) -> bool:
        """Every extremal entry must satisfy the square-sum bound."""
        return all(row.within_bound for row in self.rows if row.extremal_count > 0)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_search_extremal(seed: int, n_runs: int, out_dir: str | Path | None = None,
                        tolerances: Tolerances = DEFAULT
                        ) -> tuple[list[StateRecord], CensusReport]:
    """Seeded extremal-descent campaign from random PPT starts."""
    records = []
    for run, child in enumerate(np.random.SeedSequence(seed).spawn(n_runs)):
        rng = np.random.default_rng(child)
        start = random_ppt_state(rng)
        endpoint = descend_to_extremal(start, rng, tol=tolerances.rank_tol,
                                       psd_tol=tolerances.psd_tol,
                                       window=tolerances.face_eig_window)
        record = annotate_state(endpoint, {
            "method": "search-extremal",
            "parameters": {"interior": PPT_INTERIOR},
            "seed": int(seed),
            "run_index": run,
        }, tolerances)
        records.append(record)
    report = CensusReport.from_records(records)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "records.jsonl", "w") as handle:
            for record in records:
                handle.write(record.to_json() + "\n")
        (out_dir / "census.csv").write_text(report.to_csv())
    return records, report


def cmd_search_ranks(targets, method: str = "cg", seed: int = 0,
                     budget: int = 20, out_path: str | Path | None = None,
                     tolerances: Tolerances = DEFAULT) -> StateRecord | None:
    """Search for a PPT state with the requested rank profile.

    For "cg", the restarted block refinement, the budget counts restarts; for
    the square-sum method it counts objective evaluations. Returns None on
    failure.
    """
    targets = tuple(int(m) for m in targets)
    rng = np.random.default_rng(seed)
    problem = RankTargetProblem(targets)
    if method == "cg":
        result = solve_targets(problem, rng, restarts=budget,
                               tol=tolerances.rank_tol, psd_tol=tolerances.psd_tol,
                               require_exact=True)
        state = result.state if result.success else None
    elif method == "sq":
        try:
            result = minimize_sq(problem, rng, budget=budget,
                                 tol=tolerances.rank_tol, psd_tol=tolerances.psd_tol)
            state = result.state
        except BudgetExhausted:
            state = None
    else:
        raise ValueError(f"method must be 'cg' or 'sq', got {method!r}")
    if state is None:
        return None
    record = annotate_state(state, {
        "method": f"search-ranks-{method}",
        "parameters": {"targets": list(targets), "budget": budget},
        "seed": int(seed),
    }, tolerances, probe_rng=rng)
    if out_path is not None:
        Path(out_path).write_text(record.to_json() + "\n")
    return record


def cmd_construct(family: str, seed: int = 0, angles=None, t: complex | None = None,
                  out_path: str | Path | None = None,
                  tolerances: Tolerances = DEFAULT) -> StateRecord:
    """Construct a state from one of the three explicit rank-4444 families."""
    rng = np.random.default_rng(seed)
    if family == "upb":
        if angles is None:
            angles = (np.pi / 4, np.pi / 4, np.pi / 4)
        state = upb_state(upb_standard(*angles))
        parameters = {"angles": [float(a) for a in angles]}
    elif family == "type1":
        state, params = construct_type1(rng)
        # the family is known to cover the states found in random searches,
        # completeness is an open hypothesis
        parameters = {"t1": float(params.t1),
                      "hypothesis": "reproduces-generic-family"}
    elif family == "type2":
        if t is None:
            raise ValueError("family type2 requires the complex parameter t")
        state, params = construct_type2(t)
        parameters = {
            "t": [float(params.t.real), float(params.t.imag)],
            "lambdas": [float(v) for v in params.lambdas],
            "normalization": float(params.normalization),
            "hypothesis": "reproduces-generic-family",
        }
    else:
        raise ValueError(f"unknown family {family!r}")
    record = annotate_state(state, {
        "method": f"construct-{family}",
        "parameters": parameters,
        "seed": int(seed),
    }, tolerances, probe_rng=rng)
    if out_path is not None:
        Path(out_path).write_text(record.to_json() + "\n")
    return record


def cmd_classify(in_path: str | Path, out_path: str | Path | None = None,
                 seed: int = 0, probe_trials: int = 4,
                 tolerances: Tolerances = DEFAULT) -> StateRecord:
    """Load a record, recompute every annotation, and optionally probe
    separability."""
    text = Path(in_path).read_text()
    old = StateRecord.from_json(text.splitlines()[0])
    rng = np.random.default_rng(seed)
    provenance = dict(old.provenance)
    provenance["method"] = "classify"
    provenance["classified_from"] = str(in_path)
    record = annotate_state(old.state(), provenance, tolerances,
                            probe_rng=rng, probe_trials=probe_trials)
    if out_path is not None:
        Path(out_path).write_text(record.to_json() + "\n")
    return record


def load_records(path: str | Path) -> list[StateRecord]:
    """Records from a .jsonl stream, a single-record .json file, or a
    directory containing either."""
    path = Path(path)
    records = []
    if path.is_dir():
        for child in sorted(path.iterdir()):
            if child.suffix in (".json", ".jsonl"):
                records.extend(load_records(child))
        return records
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            records.append(StateRecord.from_json(line))
    return records


def cmd_census(in_paths, out_path: str | Path | None = None) -> CensusReport:
    records = []
    for path in in_paths:
        records.extend(load_records(path))
    report = CensusReport.from_records(records)
    if out_path is not None:
        Path(out_path).write_text(report.to_csv())
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

EXIT_OK = 0
EXIT_SEARCH_FAILED = 2
EXIT_INVALID_INPUT = 3


class _Parser(argparse.ArgumentParser):
    # invalid command lines exit with the documented invalid-input code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def _env(name: str, default):
    return os.environ.get(f"PPTATLAS_{name}", default)


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-rank", type=float,
                        default=float(_env("TOL_RANK", DEFAULT.rank_tol)))
    parser.add_argument("--tol-psd", type=float,
                        default=float(_env("TOL_PSD", DEFAULT.psd_tol)))
    parser.add_argument("--tol-i2zero", type=float,
                        default=float(_env("TOL_I2ZERO", DEFAULT.i2_zero_tol)))
    parser.add_argument("--tol-face", type=float,
                        default=float(_env("TOL_FACE", DEFAULT.face_eig_window)))


def _tolerances(args) -> Tolerances:
    return Tolerances(rank_tol=args.tol_rank, psd_tol=args.tol_psd,
                      i2_zero_tol=args.tol_i2zero, face_eig_window=args.tol_face)


def _parse_targets(text: str) -> tuple[int, int, int, int]:
    digits = [c for c in text if c.isdigit()]
    if len(digits) != 4:
        raise argparse.ArgumentTypeError(f"expected four ranks like 4444, got {text!r}")
    return tuple(int(c) for c in digits)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def _parse_angles(text: str) -> tuple[float, float, float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three angles, got {text!r}")
    return tuple(float(p) for p in parts)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pptatlas",
                     description="Search, construct and classify PPT states of three qubits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ext = sub.add_parser("search-extremal", parents=[], help="extremal-descent campaign")
    p_ext.add_argument("--seed", type=int, default=int(_env("SEED", 0)))
    p_ext.add_argument("--runs", type=int, default=int(_env("RUNS", 20)))
    p_ext.add_argument("--out", default=_env("OUT", None))
    _add_tolerance_flags(p_ext)

    p_rank = sub.add_parser("search-ranks", help="search for a given rank profile")
    p_rank.add_argument("targets", type=_parse_targets, help="four ranks, e.g. 4444")
    p_rank.add_argument("--method", choices=("cg", "sq"), default="cg",
                        help="cg: Levenberg-Marquardt refinement of the subspace-block "
                             "residual, restarted; sq: derivative-free square-sum")
    p_rank.add_argument("--seed", type=int, default=int(_env("SEED", 0)))
    p_rank.add_argument("--budget", type=int, default=int(_env("BUDGET", 20)),
                        help="restarts of the block refinement for cg; objective "
                             "evaluations for sq (use ~100000 there)")
    p_rank.add_argument("--out", default=_env("OUT", None))
    _add_tolerance_flags(p_rank)

    p_con = sub.add_parser("construct", help="construct a rank-4444 family member")
    p_con.add_argument("family", choices=("upb", "type1", "type2"))
    p_con.add_argument("--angles", type=_parse_angles, default=None,
                       help="three angles for the upb family")
    p_con.add_argument("--t", type=_parse_complex, default=None,
                       help="complex parameter for the type2 family")
    p_con.add_argument("--seed", type=int, default=int(_env("SEED", 0)))
    p_con.add_argument("--out", default=_env("OUT", None))
    _add_tolerance_flags(p_con)

    p_cls = sub.add_parser("classify", help="recompute annotations of a stored state")
    p_cls.add_argument("--in", dest="in_path", required=True)
    p_cls.add_argument("--out", default=_env("OUT", None))
    p_cls.add_argument("--seed", type=int, default=int(_env("SEED", 0)))
    p_cls.add_argument("--probe-trials", type=int, default=4)
    _add_tolerance_flags(p_cls)

    p_cen = sub.add_parser("census", help="aggregate records into a census table")
    p_cen.add_argument("--in", dest="in_paths", nargs="+", required=True)
    p_cen.add_argument("--out", default=_env("OUT", None))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "search-extremal":
            records, report = cmd_search_extremal(args.seed, args.runs, args.out,
                                                  _tolerances(args))
            sys.stdout.write(report.to_csv())
            if not report.check_bound():
                return EXIT_SEARCH_FAILED
            return EXIT_OK
        if args.command == "search-ranks":
            record = cmd_search_ranks(args.targets, args.method, args.seed,
                                      args.budget, args.out, _tolerances(args))
            if record is None:
                sys.stdout.write(json.dumps({
                    "targets": list(args.targets),
                    "method": args.method,
                    "budget": args.budget,
                    "seed": args.seed,
                    "found": False,
                }) + "\n")
                return EXIT_SEARCH_FAILED
            sys.stdout.write(record.to_json() + "\n")
            return EXIT_OK
        if args.command == "construct":
            record = cmd_construct(args.family, args.seed, args.angles, args.t,
                                   args.out, _tolerances(args))
            sys.stdout.write(record.to_json() + "\n")
            return EXIT_OK
        if args.command == "classify":
            record = cmd_classify(args.in_path, args.out, args.seed,
                                  args.probe_trials, _tolerances(args))
            sys.stdout.write(record.to_json() + "\n")
            return EXIT_OK
        if args.command == "census":
            report = cmd_census(args.in_paths, args.out)
            sys.stdout.write(report.to_csv())
            return EXIT_OK
    except (ValueError, FileNotFoundError, json.JSONDecodeError, InvalidParameter) as exc:
        sys.stderr.write(f"pptatlas: invalid input: {exc}\n")
        return EXIT_INVALID_INPUT
    except PptAtlasError as exc:
        sys.stderr.write(f"pptatlas: {type(exc).__name__}: {exc}\n")
        return EXIT_SEARCH_FAILED
    return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
