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
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULT, Tolerances
from .errors import InvalidParameter, PptAtlasError
from .extremal import (
    descend_to_extremal,
    face_solution_space,
    rank_square_bound,
    separability_probe,
)
from .invariants import InvariantFingerprint, fingerprint
from .prodvec import upb_standard, upb_state
from .qstate import DIM, PPT_INTERIOR, HermitianOperator, PptProfile, random_ppt_state
from .rank4 import construct_type1, construct_type2
from .ranksearch import RankTargetProblem, solve_targets

RNG_ALGORITHM = "numpy-pcg64"

# Rank profiles of three-qubit PPT states confirmed by prior numerical
# surveys, keyed by sorted profile. Value True means extremal examples are
# known; False means only nonextremal states were found, either although the
# square-sum bound would allow extremal ones (2222, 3333, 5688) or because
# the bound (square sum at most 193) rules them out (every row above 193).
REFERENCE_CENSUS: dict[str, bool] = {
    "1111": True, "2222": False, "3333": False, "4444": True,
    "5555": True, "5556": True, "5557": True, "5558": True,
    "5566": True, "5567": True, "5577": True, "5578": True,
    "5666": True, "5667": True, "5668": True, "5677": True,
    "5678": True, "5688": False, "5777": True, "5778": True,
    "5788": False, "6666": True, "6667": True, "6668": True,
    "6677": True, "6678": True, "6688": False, "6777": True,
    "6778": False, "6788": False, "6888": False, "7777": False,
    "7778": False, "7788": False, "7888": False, "8888": False,
}

# asymmetric combinations for which no PPT state was found at all
REPORTED_ABSENT = ("5568", "5588", "5888")


# ---------------------------------------------------------------------------
# record serialization
# ---------------------------------------------------------------------------

def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in mat]


def _matrix_from_json(data) -> np.ndarray:
    mat = np.array([[complex(re, im) for re, im in row] for row in data])
    if mat.shape != (DIM, DIM):
        raise ValueError(f"matrix has shape {mat.shape}, not ({DIM}, {DIM})")
    if not np.isfinite(mat).all():
        raise ValueError("matrix has a non-finite entry")
    return mat


def _dataclass_from_json(cls, data):
    """cls from the JSON object of dataclasses.asdict: lists become tuples,
    and a missing field takes its default."""
    values = {}
    for f in fields(cls):
        if f.name in data or f.default is MISSING:
            value = data[f.name]
            values[f.name] = tuple(value) if isinstance(value, list) else value
    return cls(**values)


def _profile_from_json(data) -> PptProfile:
    profile = _dataclass_from_json(PptProfile, data)
    if len(profile.ranks) != 4 or not all(
            type(m) is int and 1 <= m <= DIM for m in profile.ranks):
        raise ValueError(f"ranks {profile.ranks!r} are not four integers in 1..{DIM}")
    return profile


def _field(data, name: str, parse=lambda value: value):
    """parse(data[name]); ValueError naming the field when it is missing or
    malformed."""
    try:
        return parse(data[name])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"record field {name!r} is missing or malformed "
                         f"({type(exc).__name__}: {exc})") from exc


@dataclass
class StateRecord:
    """Persisted state with its classification and reproducibility metadata.

    The JSON keys of `profile` and `fingerprint` are the fields of PptProfile
    and InvariantFingerprint, in their declared order.
    """

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
            "profile": asdict(self.profile),
            "fingerprint": asdict(self.fingerprint),
            "extremal": bool(self.extremal),
            "classification": self.classification,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "StateRecord":
        """The record of a to_dict() mapping; raises ValueError naming the
        first field that is missing or malformed."""
        return cls(
            matrix=_field(data, "matrix", _matrix_from_json),
            profile=_field(data, "profile", _profile_from_json),
            fingerprint=_field(data, "fingerprint",
                               lambda fp: _dataclass_from_json(InvariantFingerprint, fp)),
            extremal=_field(data, "extremal"),
            classification=_field(data, "classification"),
            provenance=_field(data, "provenance"),
        )

    @classmethod
    def from_json(cls, text: str) -> "StateRecord":
        return cls.from_dict(json.loads(text))


def annotate_state(state: HermitianOperator, provenance: dict,
                   tolerances: Tolerances = DEFAULT,
                   probe_rng: np.random.Generator | None = None,
                   probe_trials: int = 0) -> StateRecord:
    """Compute the full annotation block of a state.

    An extremal state is decided without the probe: separable exactly when it
    is pure (a pure extremal PPT state is a product, a mixed one is
    entangled), and typed I or II when its profile is 4444. For a nonextremal
    state with probe_trials > 0 the separability probe runs: `separable` is
    True when it certifies a product decomposition and None when it finds
    none, since a separable state can be a mixture of entangled extremal PPT
    states.
    """
    state = state.normalized()
    space = face_solution_space(state, tolerances)
    extremal = space.dimension == 0
    profile = space.profile
    fprint = fingerprint(state, tolerances)
    rank4_type = None
    if extremal and profile.is_ppt and profile.ranks == (4, 4, 4, 4):
        # classify_type's rule: the fingerprint's vanishing-I2 decision; a
        # nonextremal rank-4 PPT state is separable and has no type
        rank4_type = "II" if fprint.degenerate else "I"
    separable: bool | None = None
    if extremal:
        separable = profile.ranks[0] == 1
    elif probe_trials > 0:
        rng = probe_rng if probe_rng is not None else np.random.default_rng(0)
        probe = separability_probe(state, rng, n_trials=probe_trials, tolerances=tolerances)
        separable = True if probe.verdict == "separable_evidence" else None
    classification = {"separable": separable, "type": rank4_type}
    provenance = dict(provenance)
    provenance.setdefault("rng", RNG_ALGORITHM)
    provenance.setdefault("version", __version__)
    # the tolerances that decided this annotation, also when reclassifying a
    # record made with others
    provenance["tolerances"] = asdict(tolerances)
    return StateRecord(
        matrix=np.array(state.mat),
        profile=profile,
        fingerprint=fprint,
        extremal=extremal,
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
        writer.writerow(f.name for f in fields(CensusRow))
        writer.writerows(astuple(row) for row in self.rows)
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
    if out_dir is not None:
        # an --out that cannot be a directory fails before the campaign runs
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for run, child in enumerate(np.random.SeedSequence(seed).spawn(n_runs)):
        rng = np.random.default_rng(child)
        start = random_ppt_state(rng)
        endpoint = descend_to_extremal(start, rng, tolerances)
        record = annotate_state(endpoint, {
            "method": "search-extremal",
            "parameters": {"interior": PPT_INTERIOR},
            "seed": int(seed),
            "run_index": run,
        }, tolerances)
        records.append(record)
    report = CensusReport.from_records(records)
    if out_dir is not None:
        with open(out_dir / "records.jsonl", "w") as handle:
            for record in records:
                handle.write(record.to_json() + "\n")
        (out_dir / "census.csv").write_text(report.to_csv())
    return records, report


def cmd_search_ranks(targets, seed: int = 0,
                     budget: int = 20, out_path: str | Path | None = None,
                     tolerances: Tolerances = DEFAULT) -> StateRecord | None:
    """Search for a PPT state with the requested rank profile.

    The one method, the CLI's "cg", is the restarted block refinement; the
    budget counts restarts. Returns None on failure.
    """
    targets = tuple(int(m) for m in targets)
    rng = np.random.default_rng(seed)
    problem = RankTargetProblem(targets)
    result = solve_targets(problem, rng, restarts=budget, tolerances=tolerances,
                           require_exact=True)
    if not result.success:
        return None
    record = annotate_state(result.state, {
        "method": "search-ranks-cg",
        "parameters": {"targets": list(targets), "budget": budget},
        "seed": int(seed),
    }, tolerances)
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
    }, tolerances)
    if out_path is not None:
        Path(out_path).write_text(record.to_json() + "\n")
    return record


def cmd_classify(in_path: str | Path, out_path: str | Path | None = None,
                 seed: int = 0, probe_trials: int = 4,
                 tolerances: Tolerances = DEFAULT) -> StateRecord:
    """Load the first record of a file (load_records), recompute every
    annotation, and optionally probe separability. Raises ValueError when the
    file holds no record."""
    records = load_records(in_path)
    if not records:
        raise ValueError(f"{in_path} holds no record")
    old = records[0]
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
    """The PPTATLAS_<name> override, a string that argparse converts with the
    flag's type and reports like a bad flag value, or the default."""
    return os.environ.get(f"PPTATLAS_{name}", default)


def _count(minimum: int):
    """An argparse type: integers >= minimum."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value
    return parse


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-rank", type=float, default=_env("TOL_RANK", DEFAULT.rank_tol))
    parser.add_argument("--tol-psd", type=float, default=_env("TOL_PSD", DEFAULT.psd_tol))
    parser.add_argument("--tol-i2zero", type=float,
                        default=_env("TOL_I2ZERO", DEFAULT.i2_zero_tol))
    parser.add_argument("--tol-face", type=float,
                        default=_env("TOL_FACE", DEFAULT.face_eig_window))


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
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_angles(text: str) -> tuple[float, float, float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three angles, got {text!r}")
    angles = tuple(float(p) for p in parts)
    if not np.isfinite(angles).all():
        raise argparse.ArgumentTypeError(f"expected three finite angles, got {text!r}")
    return angles


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pptatlas",
                     description="Search, construct and classify PPT states of three qubits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ext = sub.add_parser("search-extremal", parents=[], help="extremal-descent campaign")
    p_ext.add_argument("--seed", type=int, default=_env("SEED", 0))
    p_ext.add_argument("--runs", type=_count(1), default=_env("RUNS", 20))
    p_ext.add_argument("--out", default=_env("OUT", None))
    _add_tolerance_flags(p_ext)

    p_rank = sub.add_parser("search-ranks", help="search for a given rank profile")
    p_rank.add_argument("targets", type=_parse_targets, help="four ranks, e.g. 4444")
    p_rank.add_argument("--method", choices=("cg",), default="cg",
                        help="cg: Levenberg-Marquardt refinement of the subspace-block "
                             "residual, restarted")
    p_rank.add_argument("--seed", type=int, default=_env("SEED", 0))
    p_rank.add_argument("--budget", type=_count(1), default=_env("BUDGET", 20),
                        help="restarts of the block refinement")
    p_rank.add_argument("--out", default=_env("OUT", None))
    _add_tolerance_flags(p_rank)

    p_con = sub.add_parser("construct", help="construct a rank-4444 family member")
    p_con.add_argument("family", choices=("upb", "type1", "type2"))
    p_con.add_argument("--angles", type=_parse_angles, default=None,
                       help="three angles for the upb family")
    p_con.add_argument("--t", type=_parse_complex, default=None,
                       help="complex parameter for the type2 family")
    p_con.add_argument("--seed", type=int, default=_env("SEED", 0))
    p_con.add_argument("--out", default=_env("OUT", None))
    _add_tolerance_flags(p_con)

    p_cls = sub.add_parser("classify", help="recompute annotations of a stored state")
    p_cls.add_argument("--in", dest="in_path", required=True)
    p_cls.add_argument("--out", default=_env("OUT", None))
    p_cls.add_argument("--seed", type=int, default=_env("SEED", 0))
    p_cls.add_argument("--probe-trials", type=_count(0), default=4,
                       help="decomposition trees the separability probe tries on a "
                            "nonextremal state; 0 skips it")
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
            record = cmd_search_ranks(args.targets, args.seed, args.budget, args.out,
                                      _tolerances(args))
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
    except np.linalg.LinAlgError as exc:
        # a ValueError, but raised by a run on valid input
        sys.stderr.write(f"pptatlas: LinAlgError: {exc}\n")
        return EXIT_SEARCH_FAILED
    except (ValueError, OSError, InvalidParameter) as exc:
        sys.stderr.write(f"pptatlas: invalid input: {exc}\n")
        return EXIT_INVALID_INPUT
    except PptAtlasError as exc:
        sys.stderr.write(f"pptatlas: {type(exc).__name__}: {exc}\n")
        return EXIT_SEARCH_FAILED
    return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
