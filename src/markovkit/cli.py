"""Command-line frontend: every computation of the package with JSON I/O.

Reports are canonical JSON (sorted keys, fixed indentation) tagged with a
``schema`` field, so identical commands and seeds reproduce identical bytes.
The parser is built on the first ``main`` call and reused by every later
one in the process; argv, MARKOVKIT_TOL and ``--tol`` are read on every
call, and argparse's namespace goes to the subcommand's handler.  Exit
codes: 0 success, 1 validation problems (bad files, bad flags, an
unwritable output path), 2 numerical-verification failures such as feeding
a non-Markov state to markov-decompose.  Failures emit a machine-readable
error object on stderr and nothing on stdout.

Groupings are written ``A,B|C|D``: groups separated by ``|``, subsystem
labels by commas.  States whose layout has exactly three subsystems default
to one group per subsystem.  The environment variable MARKOVKIT_TOL
overrides the verification tolerance globally; ``--tol`` overrides both.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import string
import sys
from pathlib import Path

import numpy as np

from .channels import best_rotated_petz
from .cost import markovianizing_cost
from .kidecomp import ki_decompose
from .markov import is_markov, markov_decompose
from .protocols import (
    _guard_total_dim,
    conjecture_probe,
    markovianize,
    measurement_protocol,
    verify_appendix_a,
    verify_lemma1,
    verify_lemma6,
)
from .qcore import (
    DEFAULT_TOLS,
    DensityState,
    PureState,
    SystemLayout,
    Tolerances,
    VerificationError,
    _split_labels,
    entropy_of_spectrum,
    parse_three_groups,
    qcmi,
    random_pure,
    random_state,
    support_mask,
)
from .serialize import (
    SCHEMA,
    dumps_canonical,
    load_state,
    probe_csv,
    save_state,
    state_to_jsonable,
    to_jsonable,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2

VERIFY_TARGETS = ("lemma1", "appendix-a", "lemma6")


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on bad flags; code 2 is reserved for
    # verification failures, so usage problems become validation errors.
    def error(self, message):
        raise ValueError(message)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims {text!r} must be comma-separated integers")
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"dims {text!r} must be positive")
    return dims


def _three_dims(text: str) -> tuple[int, int, int]:
    dims = _parse_dims(text)
    if len(dims) != 3:
        raise argparse.ArgumentTypeError(f"dims {text!r} must name exactly three dimensions")
    return dims


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _grouping(args: argparse.Namespace, layout: SystemLayout):
    if args.split is not None:
        return parse_three_groups(args.split, layout)
    if len(layout.labels) == 3:
        return tuple((label,) for label in layout.labels)
    raise ValueError("--split is required unless the state has exactly three subsystems")


def _resolve_tols(args: argparse.Namespace) -> Tolerances:
    value = args.tol
    if value is None:
        env = os.environ.get("MARKOVKIT_TOL")
        if env is not None:
            try:
                value = float(env)
            except ValueError:
                raise ValueError(f"MARKOVKIT_TOL={env!r} is not a number")
    if value is None:
        return DEFAULT_TOLS
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"verification tolerance must be positive and finite, got {value}")
    return dataclasses.replace(DEFAULT_TOLS, verify_tol=value)


def _load(args: argparse.Namespace, tols: Tolerances):
    try:
        return load_state(args.state, tol=tols.verify_tol)
    except OSError as exc:
        raise ValueError(f"cannot read {args.state}: {exc}")


def _as_density(state) -> DensityState:
    return state.to_density() if isinstance(state, PureState) else state


def _as_pure(state, tols: Tolerances) -> PureState:
    """Accept a vector file, or a density file that is a pure projector."""
    if isinstance(state, PureState):
        return state
    vals, vecs = np.linalg.eigh(state.matrix)
    if 1.0 - vals[-1] > 1e-10:
        raise ValueError("this command needs a pure state; the largest "
                         f"eigenvalue is {vals[-1]:.8f}")
    vec = vecs[:, -1]
    # pin the global phase so equal inputs keep producing equal bytes
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * np.exp(-1j * np.angle(vec[pivot]))
    return PureState(vec, state.layout, tol=tols.verify_tol)


def _cmd_info(args: argparse.Namespace, tols: Tolerances) -> dict:
    state = _load(args, tols)
    if isinstance(state, PureState):  # read from the vector, never psi psi+
        rank, entropy, purity = 1, 0.0, np.vdot(state.vector, state.vector).real ** 2
    else:
        vals = np.linalg.eigvalsh(state.matrix)
        # rank and entropy from this one spectrum, on the package's support cut
        support = vals[support_mask(vals, tols.support_cutoff_rel)]
        rank, entropy = support.size, entropy_of_spectrum(support)
        purity = np.real(np.trace(state.matrix @ state.matrix))
    return {
        "schema": SCHEMA,
        "kind": "pure" if isinstance(state, PureState) else "density",
        "systems": to_jsonable(state.layout),
        "total_dim": state.layout.total_dim,
        "rank": rank,
        "entropy_bits": entropy,
        "purity": float(purity),
    }


def _cmd_qcmi(args: argparse.Namespace, tols: Tolerances) -> dict:
    state = _load(args, tols)
    grouping = _grouping(args, state.layout)
    return {"schema": SCHEMA, "qcmi_bits": qcmi(state, grouping, tols)}


def _cmd_ki(args: argparse.Namespace, tols: Tolerances) -> dict:
    state = _load(args, tols)
    part = args.part if args.part is not None else state.layout.labels[0]
    ki = ki_decompose(_as_density(state), part, tols)

    def rank(mat):
        return int(support_mask(np.linalg.eigvalsh(mat), tols.support_cutoff_rel).sum())

    blocks = [{"p": blk.p, "a_l_dim": blk.a_l_dim, "a_r_dim": blk.a_r_dim,
               "omega_rank": rank(blk.omega), "phi_rank": rank(blk.phi)}
              for blk in ki.blocks]
    return {"schema": SCHEMA,
            "part": list(ki.part.labels),
            "rest": list(ki.rest.labels),
            "num_blocks": len(blocks),
            "blocks": blocks}


def _cmd_markov_check(args: argparse.Namespace, tols: Tolerances) -> dict:
    report = is_markov(_as_density(_load(args, tols)), args.cond, tols=tols)
    return {"schema": SCHEMA,
            "markov": report.markov,
            "qcmi_bits": report.qcmi_bits,
            "petz_error_from_bc": report.petz_error_from_bc,
            "petz_error_from_ab": report.petz_error_from_ab}


def _cmd_markov_decompose(args: argparse.Namespace, tols: Tolerances) -> dict:
    md = markov_decompose(_as_density(_load(args, tols)), args.cond, tols=tols)
    entries = [{"q": entry.q, "b_l_dim": entry.b_l_dim, "b_r_dim": entry.b_r_dim}
               for entry in md.entries]
    return {"schema": SCHEMA,
            "cond": list(md.b_part.labels),
            "num_blocks": len(entries),
            "entries": entries}


def _cmd_recover(args: argparse.Namespace, tols: Tolerances) -> dict:
    state = _as_density(_load(args, tols))
    grouping = _grouping(args, state.layout)
    direction = args.direction.replace("-", "_")
    assessment = best_rotated_petz(state, grouping, direction=direction, tols=tols)
    return {"schema": SCHEMA,
            "direction": args.direction,
            "family": assessment.mode,
            "t": assessment.t,
            "error": assessment.error,
            "fidelity": assessment.fidelity,
            "candidates": [{"family": mode, "t": t, "error": err}
                           for mode, t, err in assessment.per_candidate]}


def _cmd_cost(args: argparse.Namespace, tols: Tolerances) -> dict:
    state = _load(args, tols)
    grouping = _grouping(args, state.layout)
    try:
        psi = _as_pure(state, tols)
    except ValueError:
        # no formula for the cost of a mixed state is known: lower bound only
        return {"schema": SCHEMA,
                "m_dec_bits": None,
                "qcmi_lower": qcmi(state, grouping, tols),
                "upper_known": False}
    report = markovianizing_cost(psi, grouping, tols)
    return {"schema": SCHEMA,
            "m_dec_bits": report.m_dec_bits,
            "qcmi_lower": report.qcmi_lower_bits,
            "weight_entropy_bits": report.weight_entropy_bits,
            "mean_right_entropy_bits": report.mean_right_entropy_bits}


def _cmd_markovianize(args: argparse.Namespace, tols: Tolerances) -> dict:
    psi = _as_pure(_load(args, tols), tols)
    grouping = _grouping(args, psi.layout)
    run_data = markovianize(psi, grouping, args.n, tols)
    report = {"schema": SCHEMA,
              "n": run_data.n,
              "ensemble_size": run_data.ensemble_size,
              "cost_bits_per_copy": run_data.cost_bits_per_copy,
              "m_dec_bits": run_data.m_dec_bits,
              "qcmi_out": run_data.qcmi_out,
              "recovery_error_from_bc": run_data.recovery_error_from_bc,
              "recovery_error_from_ab": run_data.recovery_error_from_ab}
    if args.save_output is not None:
        save_state(run_data.output, args.save_output)
        report["output_written"] = str(args.save_output)
    return report


def _cmd_measure_sim(args: argparse.Namespace, tols: Tolerances) -> dict:
    psi = _as_pure(_load(args, tols), tols)
    grouping = _grouping(args, psi.layout)
    run_data = measurement_protocol(psi, grouping, args.n, tols=tols,
                                    zeta_trials=args.zeta_trials,
                                    seed=args.seed)
    return {"schema": SCHEMA,
            "n": run_data.n,
            "r_bits": run_data.r_bits,
            "outcomes": len(run_data.probabilities),
            "completeness_deviation": run_data.completeness_deviation,
            "probabilities": to_jsonable(run_data.probabilities),
            "fidelities": to_jsonable(run_data.fidelities),
            "eps_k": to_jsonable(run_data.eps_k),
            "eps_prime_k": to_jsonable(run_data.eps_prime_k),
            "xi_k": to_jsonable(run_data.xi_k),
            "xi_is_estimate": run_data.xi_is_estimate,
            "i_g_bc_av": run_data.i_g_bc_av}


def _cmd_verify(args: argparse.Namespace, tols: Tolerances) -> dict:
    if args.target == "lemma1":
        report = verify_lemma1(args.trials, dims=args.dims, seed=args.seed,
                               tols=tols)
        failed = [name for name, passed in
                  (("fidelity", report.fidelity_pass),
                   ("qcmi-bound", report.qcmi_bound_pass),
                   ("two-eps", report.two_eps_pass))
                  if passed < report.trials]
        if failed:
            raise VerificationError(
                f"lemma1 checks failed in {', '.join(failed)} "
                f"({report.trials} trials)")
    elif args.target == "appendix-a":
        report = verify_appendix_a(args.trials, dims=args.dims, seed=args.seed,
                                   tols=tols)
    else:
        report = verify_lemma6(args.trials, n=args.n, dims=args.dims,
                               eps=args.eps, seed=args.seed, tols=tols)
    payload = to_jsonable(report)
    payload["schema"] = SCHEMA
    payload["target"] = args.target
    return payload


def _cmd_probe(args: argparse.Namespace, tols: Tolerances) -> dict:
    points = conjecture_probe(args.trials, dims=args.dims, seed=args.seed,
                              tols=tols)
    report = {"schema": SCHEMA,
              "trials": args.trials,
              "dims": list(args.dims),
              "seed": args.seed,
              "points": to_jsonable(points)}
    if args.csv is not None:
        Path(args.csv).write_text(probe_csv(points))
        report["csv_written"] = str(args.csv)
    return report


def _cmd_random_state(args: argparse.Namespace, tols: Tolerances) -> dict:
    dims = args.dims
    if args.labels is not None:
        labels = _split_labels(args.labels)
        if len(labels) != len(dims):
            raise ValueError(f"{len(labels)} labels for {len(dims)} dims")
    else:
        if len(dims) > len(string.ascii_uppercase):
            raise ValueError("too many subsystems for default labels; pass --labels")
        labels = tuple(string.ascii_uppercase[:len(dims)])
    _guard_total_dim(math.prod(dims))
    layout = SystemLayout.of(*zip(labels, dims))
    if args.pure:
        state = random_pure(layout, seed=args.seed)
    else:
        state = random_state(layout, rank=args.rank, seed=args.seed)
    # the payload IS a state file, so no schema tag here
    return state_to_jsonable(state)


_COMMANDS = {
    "info": _cmd_info,
    "qcmi": _cmd_qcmi,
    "ki": _cmd_ki,
    "markov-check": _cmd_markov_check,
    "markov-decompose": _cmd_markov_decompose,
    "recover": _cmd_recover,
    "cost": _cmd_cost,
    "markovianize": _cmd_markovianize,
    "measure-sim": _cmd_measure_sim,
    "verify": _cmd_verify,
    "probe-conjecture": _cmd_probe,
    "random-state": _cmd_random_state,
}


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(dumps_canonical(
        {"schema": SCHEMA, "error": {"type": kind, "message": message}}))


def _add_common(sub, *, state=True, split=False, dims_help=None):
    if state:
        sub.add_argument("state", help="state file (JSON)")
    if split:
        sub.add_argument("--split", default=None, metavar="A,B|C|D",
                         help="three |-separated label groups; defaults to one "
                              "group per subsystem for three-subsystem states")
    if dims_help is not None:  # a harness that draws its own states
        sub.add_argument("--trials", type=_positive_int, default=20)
        sub.add_argument("--dims", type=_three_dims, default=(2, 2, 2),
                         metavar="D,D,D", help=dims_help)
    sub.add_argument("--tol", type=float, default=None,
                     help="verification tolerance (overrides MARKOVKIT_TOL)")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing never changes it."""
    parser = _Parser(prog="markovkit",
                     description="Quantum Markov structure toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    _add_common(commands.add_parser("info", help="describe a state file"))

    sub = commands.add_parser("qcmi", help="conditional mutual information I(A:C|B)")
    _add_common(sub, split=True)

    sub = commands.add_parser("ki", help="decomposition of one side of a bipartite state")
    sub.add_argument("--part", default=None, metavar="A[,B]",
                     help="labels of the decomposed side (default: first subsystem)")
    _add_common(sub)

    sub = commands.add_parser("markov-check", help="test I(A:C|B) = 0 for a conditioner")
    sub.add_argument("--cond", default="B", help="conditioning subsystem label")
    _add_common(sub)

    sub = commands.add_parser("markov-decompose",
                              help="block decomposition of a Markov state")
    sub.add_argument("--cond", default="B")
    _add_common(sub)

    sub = commands.add_parser("recover", help="best Petz-family recovery")
    sub.add_argument("--direction", choices=("from-bc", "from-ab"), default="from-bc")
    _add_common(sub, split=True)

    sub = commands.add_parser("cost", help="markovianizing cost of a pure state")
    _add_common(sub, split=True)

    sub = commands.add_parser("markovianize", help="exact finite-n twirl")
    sub.add_argument("-n", type=_positive_int, default=1, help="number of copies")
    sub.add_argument("--save-output", default=None, metavar="FILE",
                     help="also write the twirled state here")
    _add_common(sub, split=True)

    sub = commands.add_parser("measure-sim", help="measurement-based protocol run")
    sub.add_argument("-n", type=_positive_int, default=1)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--zeta-trials", type=_positive_int, default=4,
                     help="search effort for the zeta lower bound")
    _add_common(sub, split=True)

    sub = commands.add_parser("verify", help="run a verification harness")
    sub.add_argument("target", choices=VERIFY_TARGETS)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("-n", type=_positive_int, default=1,
                     help="copies for lemma6")
    sub.add_argument("--eps", type=float, default=0.0,
                     help="marginal perturbation for lemma6 (0 asserts)")
    _add_common(sub, state=False, dims_help=(
        "A,B,C dims; lemma6 and lemma1's fidelity trials read all three, "
        "appendix-a and lemma1's two-eps/QCMI trials only A and C (B comes "
        "from the planted block shapes)"))

    sub = commands.add_parser("probe-conjecture",
                              help="recovery-error scatter; no assertion")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--csv", default=None, metavar="FILE",
                     help="also write trial,eps_ab,eps_bc rows here")
    _add_common(sub, state=False, dims_help=(
        "A,B,C dims; the generic trials read all three, the Markov ones "
        "only A and C (B has dimension 2)"))

    sub = commands.add_parser("random-state", help="write a reproducible state file")
    sub.add_argument("--dims", type=_parse_dims, default=(2, 2, 2), metavar="D,D,D")
    sub.add_argument("--labels", default=None, metavar="A,B,C")
    sub.add_argument("--rank", type=_positive_int, default=None)
    sub.add_argument("--pure", action="store_true", help="sample a pure state")
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub, state=False)

    return parser


def main(argv=None) -> int:
    """Run one invocation; report to stdout or --out, errors to stderr."""
    try:
        args = build_parser().parse_args(argv)
        tols = _resolve_tols(args)
        text = dumps_canonical(_COMMANDS[args.command](args, tols))
        if args.out is not None:
            Path(args.out).write_text(text)
    except ValueError as exc:
        _emit_error("validation", str(exc))
        return EXIT_VALIDATION
    except OSError as exc:
        # reads are mapped in _load, so this is --out, --save-output or --csv
        _emit_error("validation", f"cannot write output: {exc}")
        return EXIT_VALIDATION
    except VerificationError as exc:
        _emit_error("verification", str(exc))
        return EXIT_VERIFICATION
    if args.out is None:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
