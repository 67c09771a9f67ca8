"""Inputs of the three benchmark workloads.

Every op is one ``semifree.cli.run`` call in structured format, described
by an ``Op``. The workloads are built here and nowhere else, so that the
set-up probe and the measured run build identical inputs.

``semifree`` is imported inside ``build_ops``, because the set-up time
that the benchmark reports starts before that import.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("enumerate-default", "commands-families", "fuzz-validated")

# Generator seeds of the fuzz pool: the benchmark measures the primary
# pool; the holdout pool is for checking a claim on data that the change
# was not tuned on.
FUZZ_SEED = 1
HOLDOUT_SEED = 2
FUZZ_POOL_SIZE = 800

DATA_COMMANDS = ("validate", "localize", "restrict-table", "classify", "dh-check")
FUZZ_COMMANDS = ("localize", "restrict-table", "classify", "dh-check")
POLYTOPE_COMMANDS = ("polytope-check", "polytope-extract")


@dataclass(frozen=True)
class Op:
    """One ``cli.run`` call: the command, its input bytes and a key.

    ``key`` names the op in mismatch messages and traces. The reference
    file lists the ops' digests in the order ``build_ops`` returns them.
    """

    key: str
    command: str
    raw: bytes


def import_semifree() -> None:
    """Import the package and its CLI from this checkout's ``src`` only."""
    if not (SRC / "semifree" / "__init__.py").is_file():
        raise RuntimeError(f"no semifree sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import semifree.cli

    origin = Path(semifree.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"semifree was imported from {origin}, not {SRC}")


# ---------------------------------------------------------------------------
# commands-families: a fixed grid of valid presets and the builtin polytopes


def family_grid() -> list[tuple[str, dict]]:
    """Presets of ``family_instance`` covering all six families.

    3, 6a and 6b are swept over their parameters; every preset passes
    ``validate``.
    """
    # Type 2 with same_level is left out: two middle spheres over point
    # extremes may not share a level, so it fails ``validate``.
    grid: list[tuple[str, dict]] = [("1", {}), ("2", {}), ("4", {})]
    for same in (False, True):
        grid.append(("5", {"same_level": same}))
        for n in (-5, -3, -1, 1, 3, 5):
            grid.append(("3", {"n": n, "same_level": same}))
    for n in range(-2, 3):
        for g in range(3):
            for g1 in range(3):
                grid.append(("6a", {"n": n, "g": g, "g1": g1}))
    for k in range(3):
        for k_prime in range(3):
            grid.append(("6b", {"k": k, "k_prime": k_prime}))
    return grid


def _preset_name(tag: str, params: dict) -> str:
    args = ",".join(f"{k}={int(v)}" for k, v in sorted(params.items()))
    return f"{tag}({args})"


def commands_families_ops() -> list[Op]:
    from semifree.classifier import family_instance
    from semifree.delzant import builtin_examples, polytope_to_json_dict

    ops = []
    for tag, params in family_grid():
        raw = family_instance(tag, **params).dumps().encode()
        name = _preset_name(tag, params)
        ops += [Op(f"{command} {name}", command, raw) for command in DATA_COMMANDS]
    for name, polytope in sorted(builtin_examples().items()):
        raw = json.dumps(polytope_to_json_dict(polytope), sort_keys=True).encode()
        ops += [Op(f"{command} {name}", command, raw) for command in POLYTOPE_COMMANDS]
    return ops


# ---------------------------------------------------------------------------
# fuzz-validated: seeded random data that pass ``validate``

# Each extreme pairing fixes N2 - N4, the count of index-2 points minus
# index-4 points (the pairing rules of ``validate``).
_POINT_BALANCE = {
    ("point", "point"): 0,
    ("surface", "point"): -1,
    ("point", "surface"): 1,
    ("surface", "surface"): 0,
}


def _component(kind: str, index: int, level: int, **fields) -> dict:
    entry = {"kind": kind, "index": index, "level": str(level)}
    entry.update(fields)
    return entry


def _rank_legal(lo_kind: str, middles: list[tuple[str, int]]) -> bool:
    """Whether some order of each level's blow-ups and blow-downs keeps
    the reduced space's rank at least 1 (the rank walk of ``validate``).
    Doing a level's blow-ups first is always the best order."""
    rank = 1 if lo_kind == "point" else 2
    for level in sorted({lv for _, lv in middles}):
        ups = sum(1 for kind, lv in middles if lv == level and kind == "P2")
        downs = sum(1 for kind, lv in middles if lv == level and kind == "P4")
        if rank + ups - downs < 1:
            return False
        rank += ups - downs
    return True


def _draw_datum(rng: random.Random) -> dict | None:
    """One random draw; None when it breaks a rule of ``validate``."""
    lo_kind = rng.choice(("point", "surface"))
    hi_kind = rng.choice(("point", "surface"))
    n_mid = rng.randint(0, 4)
    balance = _POINT_BALANCE[(lo_kind, hi_kind)]
    shapes = [
        (n2, n4, n_mid - n2 - n4)
        for n2 in range(n_mid + 1)
        for n4 in range(n_mid + 1 - n2)
        if n2 - n4 == balance
    ]
    if not shapes:
        return None
    n2, n4, n_surfaces = rng.choice(shapes)
    kinds = ["P2"] * n2 + ["P4"] * n4 + ["S"] * n_surfaces
    rng.shuffle(kinds)
    # Up to n_mid distinct middle levels; fewer levels than middles
    # makes components share a level.
    slots = [rng.randint(1, max(1, n_mid)) for _ in kinds]
    used = sorted(set(slots))
    levels = [used.index(slot) + 1 for slot in slots]
    top = len(used) + 1
    middles = list(zip(kinds, levels))
    if not _rank_legal(lo_kind, middles):
        return None

    genus = rng.randint(0, 3) if lo_kind == hi_kind == "surface" else 0
    components = []
    b_lo = b_hi = None
    if lo_kind == "point":
        components.append(_component("point", 0, 0))
    else:
        b_lo = rng.randint(-6, 6)
        components.append(_component("surface", 0, 0, genus=genus, b=b_lo))
    if hi_kind == "point":
        components.append(_component("point", 6, top))
    else:
        b_hi = rng.randint(-6, 6)
        components.append(_component("surface", 4, top, genus=genus, b=b_hi))
    surface_levels = []
    for kind, level in middles:
        if kind == "P2":
            components.append(_component("point", 2, level))
        elif kind == "P4":
            components.append(_component("point", 4, level))
        else:
            surface_levels.append(level)
            components.append(
                _component(
                    "surface",
                    2,
                    level,
                    genus=rng.randint(0, 3),
                    b_plus=rng.randint(-4, 4),
                    b_minus=rng.randint(-4, 4),
                )
            )

    if lo_kind == hi_kind == "point" and len(set(surface_levels)) != len(surface_levels):
        return None
    twist = False
    if lo_kind == hi_kind == "surface" and not n2 and not n4:
        if (b_lo - b_hi) % 2:
            return None
        if genus == 0 and b_lo % 2 == 0 and b_hi % 2 == 0:
            twist = rng.random() < 0.5
        if not n_surfaces and not (twist and b_lo == b_hi == 2):
            return None
    return {"schema": "fpdata.v1", "twist": twist, "components": components}


def fuzz_pool(seed: int, size: int = FUZZ_POOL_SIZE) -> list[bytes]:
    """``size`` fpdata documents drawn from ``seed``; byte-identical per seed.

    Uses only the standard library, so the pool does not change when
    the package does.
    """
    rng = random.Random(seed)
    pool: list[bytes] = []
    while len(pool) < size:
        payload = _draw_datum(rng)
        if payload is not None:
            pool.append(json.dumps(payload, sort_keys=True).encode())
    return pool


def shares_middle_level(raw: bytes) -> bool:
    """Whether two middle components of an fpdata document share a level."""
    levels = [
        c["level"]
        for c in json.loads(raw)["components"]
        if c["index"] == 2 or (c["index"] == 4 and c["kind"] == "point")
    ]
    return len(levels) != len(set(levels))


def fuzz_ops(seed: int) -> list[Op]:
    ops = []
    for position, raw in enumerate(fuzz_pool(seed)):
        ops += [Op(f"{command} #{position}", command, raw) for command in FUZZ_COMMANDS]
    return ops


# ---------------------------------------------------------------------------


def build_ops(workload: str, holdout: bool = False) -> list[Op]:
    """Import the package and build the workload's ops (the set-up)."""
    import_semifree()
    if workload == "enumerate-default":
        return [Op("enumerate default", "enumerate", b"")]
    if workload == "commands-families":
        return commands_families_ops()
    if workload == "fuzz-validated":
        return fuzz_ops(HOLDOUT_SEED if holdout else FUZZ_SEED)
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(ops: list[Op]) -> str:
    """One digest over every op's key, command and input bytes."""
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.key}\0{op.command}\0{len(op.raw)}\0".encode())
        h.update(op.raw)
    return h.hexdigest()


def output_digest(code: int, report: bytes) -> str:
    """Digest of an op's exit code and report bytes."""
    return hashlib.sha256(b"%d\0" % code + report).hexdigest()[:16]
