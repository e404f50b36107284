"""Output checks. Each returns a list of problems; an empty list passes.

A check that finds a problem makes its operation count as failed. The
checks recompute what they expect from first principles, the closed
form of the decision rule and the structure of an unfolded chain, or
compare with sha256 digests recorded from a known-good tree.
"""

from __future__ import annotations

import hashlib
import json
import math

# sha256 of outputs that are fixed for the default configuration,
# recorded from the tree the benchmark was defined on. `newcomb graph`
# writes the 7-node game graph; `newcomb region` with the classic table
# at the default resolution of 101 writes the CSV.
GAME_DOT_SHA256 = "f61871343e6b5c6c3c43e158b0c91277ddbdff5a7ec5e3152ebe700ef766238f"
CLASSIC_CSV_R101_SHA256 = "bd4ed2d1becffdb1e4dae8cac8230b65a6cc3cb997d5c4d28c0a90c147251784"

# Sampled means must lie within this many exact standard errors of the
# closed form: 4 at the random predictor (0.5, 0.5), as the release
# criteria use, and 6 for the other seed-drawn interior profiles, which
# are many, so that a correct kernel fails one with odds below 1e-8.
SE_LIMIT_RANDOM = 4.0
SE_LIMIT_OTHER = 6.0


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """Parse text as RFC 8259 JSON; returns (document, problems)."""
    try:
        document = json.loads(text, parse_constant=_reject_constant)
        json.dumps(document, allow_nan=False)
    except ValueError as exc:
        return None, [f"not strict JSON: {exc}"]
    return document, []


def check_digest(data: bytes, expected_hex: str, what: str) -> list[str]:
    actual = hashlib.sha256(data).hexdigest()
    if actual != expected_hex:
        return [f"{what}: sha256 {actual} != recorded {expected_hex}"]
    return []


def closed_form(utilities, predictor) -> tuple[float, float]:
    (v11, v12), (v21, v22) = utilities
    p1, p2 = predictor
    return v21 + p1 * (v11 - v21), v12 + p2 * (v22 - v12)


def check_expected(text: str, utilities, predictor) -> list[str]:
    document, problems = strict_json(text)
    if problems:
        return problems
    u1, u2 = closed_form(utilities, predictor)
    (v11, v12), (v21, v22) = utilities
    want = {
        "u1": u1,
        "u2": u2,
        "choice": "C1" if u1 >= u2 else "C2",
        "boundary": {"a1": v11 - v21, "a2": v12 - v22, "b": v12 - v21},
    }
    return [
        f"expected: {key} = {document.get(key)!r}, want {value!r}"
        for key, value in want.items()
        if document.get(key) != value
    ]


def check_simulate(text: str, utilities, predictor, trials: int, seed: int) -> list[str]:
    """Strict JSON, closed-form fields, and the sampled means."""
    document, problems = strict_json(text)
    if problems:
        return problems
    if document.get("trials") != trials or document.get("seed") != seed:
        return [f"simulate: trials/seed {document.get('trials')}/{document.get('seed')}"]
    u1, u2 = closed_form(utilities, predictor)
    p1, p2 = predictor
    limit = SE_LIMIT_RANDOM if (p1, p2) == (0.5, 0.5) else SE_LIMIT_OTHER
    (v11, v12), (v21, v22) = utilities
    for choice, theory, q, hi, lo in (
        ("C1", u1, p1, v11, v21),
        ("C2", u2, 1.0 - p2, v12, v22),
    ):
        mean = document["numerical"][choice]
        se = document["standard_error"][choice]
        if document["theoretical"][choice] != theory:
            problems.append(f"simulate: theoretical {choice} {document['theoretical'][choice]!r} != {theory!r}")
        want_se = abs(hi - lo) * math.sqrt(q * (1.0 - q) / trials)
        if not math.isclose(se, want_se, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"simulate: standard error {choice} {se!r} != {want_se!r}")
        if q in (0.0, 1.0) or hi == lo:
            if mean != theory:
                problems.append(f"simulate: {choice} mean {mean!r} must be exactly {theory!r}")
        elif abs(mean - theory) > limit * want_se:
            problems.append(
                f"simulate: {choice} mean {mean!r} is {abs(mean - theory) / want_se:.2f} "
                f"standard errors from {theory!r} (limit {limit})"
            )
    return problems


def check_same_means(serial_text: str, parallel_text: str) -> list[str]:
    """The same (seed, N) must give bit-identical results at any parallelism."""
    serial, problems = strict_json(serial_text)
    parallel, more = strict_json(parallel_text)
    if problems or more:
        return problems + more
    return [
        f"simulate: {field} differs between parallelism degrees: "
        f"{serial[field]!r} != {parallel[field]!r}"
        for field in ("numerical", "theoretical", "standard_error")
        if serial.get(field) != parallel.get(field)
    ]


def check_region_sample(text: str, utilities, resolution: int, cells) -> list[str]:
    """Header, size, every axis string, and the sampled (i, j) cells.

    A cell's expected choice is choose()'s rule, C1 iff U1 >= U2, with
    the same floating-point operations; it is evaluated here so that
    the benchmark process never loads the package or numpy, which
    would inflate the peak RSS it reads for its child processes.
    """
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != "p1,p2,choice" or len(lines) != resolution**2 + 2:
        return [f"region: {len(lines)} lines / bad header or final newline"]
    problems = []
    axis = [format(i / (resolution - 1), ".6g") for i in range(resolution)]
    for i in range(resolution):
        p1_field = lines[1 + i * resolution].split(",")[0]
        p2_field = lines[1 + i].split(",")[1]
        if p1_field != axis[i] or p2_field != axis[i]:
            problems.append(f"region: axis {i} reads {p1_field!r}/{p2_field!r}, want {axis[i]!r}")
    step = resolution - 1
    for i, j in cells:
        u1, u2 = closed_form(utilities, (i / step, j / step))
        choice = "C1" if u1 >= u2 else "C2"
        want = f"{axis[i]},{axis[j]},{choice}"
        got = lines[1 + i * resolution + j]
        if got != want:
            problems.append(f"region: cell ({i}, {j}) reads {got!r}, want {want!r}")
    return problems


def unfold_walk(n: int, k: int, m: int, prefix: int) -> list[int]:
    """A chain-shaped walk through unfold(base_chain(n), (n, k, m)).

    It runs the chain 1..prefix (prefix < k), jumps ahead to m, passes
    the elaboration n+1 back to k, then rides the copies n+2 .. 2n+1-k,
    generalising the oracle's walk 1, 3, 5, 2, 6, 7 of the game graph.
    """
    return [*range(1, prefix + 1), m, n + 1, k, *range(n + 2, 2 * n + 2 - k)]


def expected_twists(n: int, k: int, m: int) -> list[tuple[int, int]]:
    # Only m is visited before events that precede it causally: k and
    # the copies of k+1 .. m-1 (copy of j is n+1+j-k).
    return [(m, k)] + [(m, n + 1 + j - k) for j in range(k + 1, m)]


def expected_dot(n: int, k: int, m: int) -> str:
    """The DOT text of unfold(base_chain(n), (n, k, m)) for n != 4."""
    elaboration = n + 1
    copy = {j: n + 1 + j - k for j in range(k + 1, n + 1)}
    lines = ["digraph tlg {", "  rankdir=LR;"]
    for node in range(1, 2 * n + 2 - k):
        kind = "elaboration" if node == elaboration else "generic"
        lines.append(f'  {node} [label="{node}: {kind}"];')
    edges = {(i, i + 1) for i in range(1, n)}
    edges |= {(m, elaboration), (elaboration, k), (k, copy[k + 1])}
    edges |= {(copy[j], copy[j + 1]) for j in range(k + 1, n)}
    for u, v in sorted(edges):
        style = "solid" if u <= n and v <= n else "dashed"
        lines.append(f"  {u} -> {v} [style={style}];")
    for j in range(k + 1, n + 1):
        lines.append(f"  {j} -> {copy[j]} [dir=none, style=dotted, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def check_unfolded(n, k, m, graph, twists, linear, dot) -> list[str]:
    """Check one tlg-large operation against the chain's known structure."""
    problems = []
    want_classes = {frozenset((j, n + 1 + j - k)) for j in range(k + 1, n + 1)}
    if len(graph.nodes) != 2 * n + 1 - k:
        problems.append(f"tlg: {len(graph.nodes)} nodes, want {2 * n + 1 - k}")
    if set(graph.nontrivial_classes) != want_classes:
        problems.append(f"tlg: entanglement classes differ for spec ({n}, {k}, {m})")
    if list(twists) != expected_twists(n, k, m):
        problems.append(f"tlg: twists differ for spec ({n}, {k}, {m})")
    if linear is not True:
        problems.append(f"tlg: walk judged non-linear for spec ({n}, {k}, {m})")
    if dot != expected_dot(n, k, m):
        problems.append(f"tlg: DOT differs for spec ({n}, {k}, {m})")
    return problems
