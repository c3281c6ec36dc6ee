"""Fixed op pools for the four benchmark workloads.

Every workload is a fixed pool of distinct configurations.  The run seed
only shuffles the order of the pool and draws the seeds of the stochastic
kinds (``lemma1`` and ``identity``), so two seeds run the same configs with
different order and randomness, and no two ops of one run share an input.
A cross-call memo therefore cannot turn repeated work into lookups.

Pools are sized so that one pass takes three to five seconds of scaled op
time on a 2-core Xeon with Python 3.11, and so that at least ten ops lie
beyond the 90th percentile of op time (every pool has at least 110 ops).
Where p50 and p90 fall, each pool holds many ops of like cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("walk-mc", "deep-chain", "action", "cli-short")

# Admissible (fiber coordinate, level) points of the FF d=3 boxes Q(2), Q(4)
# and Q(5); their vertical sections have 4097, 65537 and 61697 levels.
REACH_POINTS = {
    2: ((362, 170), (772, 786), (157, 1402)),
    4: ((3600, 7964),),
    5: ((6178, 34934),),
}
REACH_KAPPA = "1/2"
FAMILIES = ("geometric", "symmetric-geometric")


@dataclass(frozen=True)
class Op:
    """One benchmark op: a ``critreg`` argv, or a vertical-section reach.

    ``argv`` excludes ``--out`` and ``--seed``; ``seed`` is set for the
    stochastic kinds only.  ``call`` is ``("reach", n, family, point)`` or
    ``("subdivision", n)`` on the FF d=3 box Q(n).
    """

    argv: tuple[str, ...] = ()
    seed: int | None = None
    call: tuple | None = None

    @property
    def kind(self) -> str:
        return self.call[0] if self.call else self.argv[0]

    @property
    def config(self) -> tuple:
        """The seed-free part of the input."""
        return (self.argv, self.call)

    def cli_argv(self) -> list[str]:
        tail = ["--seed", str(self.seed)] if self.seed is not None else []
        return [*self.argv, *tail]

    def label(self) -> str:
        if self.call:
            return " ".join(str(c) for c in self.call)
        return " ".join(self.cli_argv())


def _cli(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _b_d2(pair: str, n: int) -> tuple[str, ...]:
    return _cli(f"chain-b --d 2 --variant B-d2 --alpha {pair} --n-max {n}")


def _walk_mc() -> tuple[list, list]:
    # body: walks of about 15 ms; tail: about 70 ms each.
    # Costs within each group are close, so p50 and p90 sit among many
    # similar ops rather than on one config.
    stochastic = [
        _cli(f"lemma1 --d {d} --family {FAMILIES[n // 4 % 2]} --n-max {n} --samples 250")
        for d in (2, 3, 4)
        for n in range(180, 312, 4)
    ]
    # the tail's n_max falls with d so that all 18 cost about the same
    stochastic += [
        _cli(f"lemma1 --d {d} --n-max {n0 + 10 * k} --samples 1000")
        for d, n0 in ((2, 680), (3, 600), (4, 480))
        for k in range(6)
    ]
    return [], stochastic


def _deep_chain() -> tuple[list, list]:
    fixed = []
    # heavy tail: exact masses with huge denominators, and the deepest chains;
    # the B-d2 cells and FF-d3 at n_max 23 fail budget-ratio-spread.  About
    # seven ops of 0.16 to 0.2 s lie above six of 0.13 to 0.15 s (the large
    # reach ops among them), and with 114 ops the 90th percentile falls
    # among those six.
    for pair, ns in (("1/3,2/3", (24,)), ("2/3,1/3", (25,)), ("1/2,1/2", (28,)),
                     ("1/4,3/4", (21, 22)), ("3/4,1/4", (22,))):
        fixed += [_b_d2(pair, n) for n in ns]
    fixed += [_cli(f"chain-b --d {d} --variant {v} --n-max {n}")
              for d, v, ns in ((3, "B-d3", (24, 25)), (3, "B-general", (23, 24, 25)),
                               (4, "B-general", (19, 20)))
              for n in ns]
    fixed += [_cli(f"chain-ff --d 3 --family {fam} --n-max {n}")
              for fam in FAMILIES for n in (22, 23)]
    # body: shallower depths of the same builders; B-d2 at n_max 19 to 21
    # (about 10 to 13 ms each) is dense, so the median sits among many
    # ops of like cost instead of in a gap between two depths
    for pair in ("1/2,1/2", "2/5,3/5", "3/5,2/5", "3/7,4/7", "4/7,3/7", "5/9,4/9", "4/9,5/9"):
        fixed += [_b_d2(pair, n) for n in (16, 18, 19, 20, 21, 22)]
    for pair in ("5/11,6/11", "6/11,5/11", "6/13,7/13", "7/13,6/13"):
        fixed += [_b_d2(pair, n) for n in (19, 20, 21)]
    for pair in ("1/3,2/3", "2/3,1/3"):
        fixed += [_b_d2(pair, n) for n in (16, 18, 20, 22)]
    fixed += [_cli(f"chain-b --d 3 --variant {v} --n-max {n}")
              for v in ("B-d3", "B-general") for n in (14, 16, 18, 20, 22)]
    fixed += [_cli(f"chain-b --d 4 --variant B-general --n-max {n}") for n in (14, 16, 18)]
    fixed += [_cli(f"chain-ff --d 3 --family {fam} --n-max {n}")
              for fam in FAMILIES for n in (14, 15, 16, 17, 20, 21)]
    fixed += [Op(call=("reach", n, fam, p)) for n, pts in REACH_POINTS.items()
              for fam in FAMILIES for p in pts]
    return fixed, []


def _action() -> tuple[list, list]:
    # identity ops of about 25 ms (the sample count offsets the per-sample
    # cost of each model); dynamics ops of about 0.11 s are the tail.
    # dynamics at --c-param 0.5 --alpha-holder 2/3 fails iterate-growth-bound.
    stochastic = [
        _cli(f"identity --d {d} --variant {v} --samples {base + k}")
        for d, v, base in ((2, "ff", 30), (2, "translation", 24), (3, "ff", 22),
                           (3, "translation", 18), (4, "ff", 18), (4, "translation", 13))
        for k in range(16)
    ]
    fixed = [
        _cli(f"dynamics --c-param {c} --alpha-holder {a} --k-max 750")
        for c in ("0.6", "0.75", "1.0", "1.25", "1.5", "2.0", "2.5")
        for a in ("1/3", "2/3")
    ]
    return fixed, stochastic


README_FAST = (
    "boxes --d 3 --variant FF --n-max 16",
    "boxes --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 20",
    "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 15",
    "chain-b --d 3 --variant B-d3 --n-max 12",
    "chain-ff --d 3 --family symmetric-geometric --n-max 13",
)


def _cli_short() -> tuple[list, list]:
    pairs = ("1/2,1/2", "1/3,2/3", "2/3,1/3", "2/5,3/5", "3/5,2/5", "3/7,4/7", "4/7,3/7")
    fixed = [_cli(f"boxes --d {d} --variant FF --n-max {n}")
              for d in (3, 4, 5, 6) for n in range(4, 21)]
    fixed += [_cli(f"boxes --d 2 --variant B-d2 --alpha {p} --n-max {n}")
              for p in pairs for n in range(6, 25)]
    fixed += [_cli(f"boxes --d {d} --variant B-general --n-max {n}")
              for d in (3, 4) for n in range(4, 21)]
    fixed += [_b_d2(p, n) for p in pairs for n in range(6, 17)]
    fixed += [_cli(f"chain-b --d 3 --variant {v} --n-max {n}")
              for v in ("B-d3", "B-general") for n in range(5, 14)]
    fixed += [_cli(f"chain-b --d 4 --variant B-general --n-max {n}") for n in range(6, 11)]
    fixed += [_cli(f"chain-ff --d 3 --family {f} --n-max {n}")
              for f in FAMILIES for n in range(6, 18)]
    fixed += [_cli(f"chain-ff --d {d} --family {f} --n-max {n}")
              for f in FAMILIES for d in (4, 5) for n in range(7, 13)
              if (f, d, n) != ("geometric", 4, 10)]
    fixed += [_cli(f"dynamics --c-param {c} --alpha-holder {a} --k-max {k}")
              for c, a, k in (("0.6", "1/2", 40), ("1.0", "1/3", 60), ("1.5", "2/3", 80),
                              ("2.0", "1/2", 100), ("0.8", "2/3", 50), ("1.2", "1/2", 70))]
    stochastic = [_cli(f"lemma1 --d {d} --n-max {n} --samples 100")
                  for d in (2, 3, 4) for n in range(20, 105, 5)]
    stochastic += [_cli(f"identity --d {d} --variant {v} --samples {s}")
                   for d in (2, 3, 4) for v in ("ff", "translation") for s in range(2, 10)]
    readme = [_cli(t) for t in README_FAST] + [_cli("chain-ff --d 4 --n-max 10")]
    return readme + [a for a in fixed if a not in readme], stochastic


POOLS = {
    "walk-mc": _walk_mc,
    "deep-chain": _deep_chain,
    "action": _action,
    "cli-short": _cli_short,
}

# one small op per kind, not in any pool, run before timing starts
WARMUP = {
    "walk-mc": (_cli("lemma1 --d 3 --n-max 30 --samples 50"),),
    "deep-chain": (_b_d2("1/2,1/2", 6), _cli("chain-ff --d 3 --n-max 9")),
    "action": (_cli("identity --d 2 --variant ff --samples 2"),
               _cli("dynamics --c-param 3.0 --alpha-holder 1/2 --k-max 20")),
    "cli-short": (_cli("boxes --d 3 --variant FF --n-max 6"), _b_d2("1/2,1/2", 6)),
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The run's ops: the whole pool in seeded order with seeded randomness."""
    if workload not in POOLS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    fixed, stochastic = POOLS[workload]()
    ops = [o if isinstance(o, Op) else Op(argv=o) for o in fixed]
    rng = random.Random(f"{workload}:{seed}")
    seeds = rng.sample(range(1, 2 ** 31), len(stochastic))
    ops += [Op(argv=a, seed=s) for a, s in zip(stochastic, seeds)]
    rng.shuffle(ops)
    return ops


def warmup_ops(workload: str) -> list[Op]:
    ops = [Op(argv=a, seed=1 if a[0] in ("lemma1", "identity") else None)
           for a in WARMUP[workload]]
    if workload == "deep-chain":
        ops.append(Op(call=("reach", 2, "geometric", (5, 170))))
    return ops


# The eight README command lines at README size, timed once per traced run.
README_LINES = (
    ("lemma1", "lemma1 --d 3 --n-max 1000 --samples 10000 --seed 42"),
    ("boxes-ff", README_FAST[0]),
    ("boxes-b-d2", README_FAST[1]),
    ("chain-b-d2", README_FAST[2]),
    ("chain-b-d3", README_FAST[3]),
    ("chain-ff", README_FAST[4]),
    ("identity", "identity --d 3 --variant ff --samples 1000 --seed 7"),
    ("dynamics", "dynamics --c-param 1.0 --alpha-holder 1/2 --k-max 10000"),
)

# Scaling ladders (metric ``ladder.<name>.<size>.s``), each stopped below
# the sizes a run cannot finish: B-d2 grows about 4x per n_max step (n_max
# 30 takes about 20 s), identity at 10000 samples takes about 8 s, and FF
# subdivision of Q(8) (16.8M levels) needs several GB.
LADDERS = (
    *((f"b-d2.{n}", Op(argv=_b_d2("1/3,2/3", n))) for n in range(20, 27)),
    *((f"identity.{s}", Op(argv=_cli(f"identity --d 3 --variant ff --samples {s} --seed 11")))
      for s in (125, 250, 500, 1000)),
    *((f"ff-subdivision.{levels}", Op(call=("subdivision", n)))
      for levels, n in ((4097, 2), (65537, 4), (1048577, 6))),
)


def extra_ops() -> list[tuple[str, Op]]:
    """README lines and ladder rungs, keyed by their metric name."""
    return [(f"readme.{name}.s", Op(argv=_cli(text))) for name, text in README_LINES] + [
        (f"ladder.{name}.s", op) for name, op in LADDERS
    ]
