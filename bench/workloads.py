"""Inputs, operations and independent expected results of the workloads.

Every input is a pure function of the seed. Expected results never come
from the engine's query path: `star-scale` derives them from the
generator's own triple list, `adaptive` from the brute-force oracle in
`tests/naive_eval.py` evaluated on each shape's own small dataset, and
`ingest` from the set of triples the generator wrote.
"""

from __future__ import annotations

import ast
import io
import random
import re
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import genqueries  # noqa: E402
import naive_eval  # noqa: E402
from rosie import datagen  # noqa: E402
from rosie.frontend import parse_query  # noqa: E402
from rosie.runtime import Policy, run  # noqa: E402
from rosie.store import Dataset, load_ntriples, snapshot_load, snapshot_save  # noqa: E402

MASK = (1 << 64) - 1


def digest(rows) -> tuple[int, int]:
    """Order-independent fingerprint of a bag of rows: (count, hash sum)."""
    return len(rows), sum(map(hash, rows)) & MASK


def bag_digest(bag: Counter) -> tuple[int, int]:
    return (
        sum(bag.values()),
        sum(hash(row) * n for row, n in bag.items()) & MASK,
    )


class _Capture:
    """Stands in for `Dataset` inside `rosie.datagen` so a builder returns
    the raw triple list it generated instead of an engine dataset."""

    @classmethod
    def from_strings(cls, triples):
        return list(triples)


def generated(builder, **kwargs) -> list[tuple[str, str, str]]:
    saved = datagen.Dataset
    datagen.Dataset = _Capture
    try:
        return builder(**kwargs)
    finally:
        datagen.Dataset = saved


def to_ntriples(triples) -> bytes:
    """Terms are canonical strings: literals start with '"', the rest are IRIs."""
    return "".join(
        " ".join(t if t[0] == '"' else f"<{t}>" for t in triple) + " .\n"
        for triple in triples
    ).encode("utf-8")


def namespaced(prefix: str, triples):
    def ns(term: str) -> str:
        return term if term[0] == '"' else prefix + term

    return [(ns(s), ns(p), ns(o)) for s, p, o in triples]


def namespaced_query(prefix: str, text: str) -> str:
    return re.sub(r"<([^>]+)>", lambda m: f"<{prefix}{m.group(1)}>", text)


def renamed(text: str, round_no: int) -> str:
    """The query text of one round: every variable gets the prefix
    `r<round>_`, so no text repeats within a run while the result bag,
    its column order and the planner's variable order stay the same."""
    if round_no == 0:
        return text
    return re.sub(r"\?(\w+)", lambda m: f"?r{round_no}_{m.group(1)}", text)


def encode_bag(d: Dataset, bag_of_terms: Counter) -> Counter:
    """Rows of term strings to rows of `d`'s term ids (None stays None)."""
    lookup = d.dict.lookup
    return Counter(
        {tuple(None if t is None else lookup(t) for t in row): n
         for row, n in bag_of_terms.items()}
    )


class QueryWorkload:
    """One `Dataset`, loaded through `load_ntriples` as `rosie load` does,
    serves every query. An operation is parse plus run of one query."""

    # the default policy: rosie, tau 8, sigma 0.05
    policy = Policy("rosie")

    def setup(self) -> None:
        self.d = None  # free the previous set-up's dataset first
        self.triples, blob = self.build()
        self.d = load_ntriples(io.BytesIO(blob))

    @property
    def round_size(self) -> int:
        return len(self.specs)

    def op(self, i: int, round_no: int):
        return run(parse_query(renamed(self.specs[i].text, round_no)), self.d, self.policy)

    @staticmethod
    def fingerprint(out) -> tuple[int, int]:
        return digest(out[0].rows)


@dataclass(frozen=True)
class QuerySpec:
    """One query of a round: its shape, its round-0 text, the instance it
    runs on (adaptive) and its drawn constants (star-scale)."""

    kind: str
    text: str
    instance: str = ""
    params: tuple = ()


# ---------------------------------------------------------------------------
# star-scale
# ---------------------------------------------------------------------------

STAR_SIZES = {"full": (200_000, 50_000), "tiny": (4_000, 1_000)}

# (kind, count per round). Full-output stars sit beside selective stars
# whose constant is drawn fresh for every query of the round.
STAR_MIX = (
    ("full2", 1), ("full3", 1), ("optfull", 1),
    ("sel3", 1), ("sel2", 10), ("selopt", 3), ("subj", 3),
)


class StarScale(QueryWorkload):
    name = "star-scale"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.total, self.entities = STAR_SIZES[size]
        rng = random.Random(f"{seed}/star-scale")
        self.specs = [
            self._spec(kind, rng) for kind, count in STAR_MIX for _ in range(count)
        ]

    def build(self):
        triples = generated(
            datagen.uncorrelated_uniform,
            total_triples=self.total, entities=self.entities, seed=self.seed,
        )
        return triples, to_ntriples(triples)

    def _spec(self, kind: str, rng: random.Random) -> QuerySpec:
        x, y, z = rng.sample(["a", "b", "c"], 3)
        v = f"v{rng.randrange(self.entities)}"
        e = f"e{rng.randrange(self.entities)}"
        text = {
            "full2": f"SELECT ?s ?w ?x WHERE {{ ?s <d> ?w . ?s <{x}> ?x . }}",
            "full3": f"SELECT ?s ?w ?x ?y WHERE {{ ?s <d> ?w . ?s <{x}> ?x . ?s <{y}> ?y . }}",
            "optfull": f"SELECT ?s ?w ?x WHERE {{ ?s <d> ?w . OPTIONAL {{ ?s <{x}> ?x . }} }}",
            "sel3": f"SELECT ?s ?y ?z WHERE {{ ?s <{x}> <{v}> . ?s <{y}> ?y . ?s <{z}> ?z . }}",
            "sel2": f"SELECT ?s ?y WHERE {{ ?s <{x}> <{v}> . ?s <{y}> ?y . }}",
            "selopt": f"SELECT ?s ?w WHERE {{ ?s <{x}> <{v}> . OPTIONAL {{ ?s <d> ?w . }} }}",
            "subj": f"SELECT ?x ?y WHERE {{ <{e}> <{x}> ?x . <{e}> <{y}> ?y . }}",
        }[kind]
        return QuerySpec(kind, text, params=(x, y, z, v, e))

    def expected(self) -> tuple[list, list[str]]:
        """Bags computed from the generator's triple list by plain dict joins."""
        return [bag_digest(b) for b in self.expected_bags()], []

    def expected_bags(self) -> list[Counter]:
        by_pred: dict[str, dict[str, list[str]]] = {}
        for s, p, o in set(self.triples):
            by_pred.setdefault(p, {}).setdefault(s, []).append(o)
        out = []
        for spec in self.specs:
            x, y, z, v, e = spec.params
            px, py, pz, pd = (by_pred.get(k, {}) for k in (x, y, z, "d"))
            rows: Counter = Counter()
            if spec.kind == "full2":
                for s, ws in pd.items():
                    for w in ws:
                        for xv in px.get(s, ()):
                            rows[(s, w, xv)] += 1
            elif spec.kind == "full3":
                for s, ws in pd.items():
                    for w in ws:
                        for xv in px.get(s, ()):
                            for yv in py.get(s, ()):
                                rows[(s, w, xv, yv)] += 1
            elif spec.kind == "optfull":
                for s, ws in pd.items():
                    for w in ws:
                        for xv in px.get(s, [None]):
                            rows[(s, w, xv)] += 1
            elif spec.kind == "subj":
                for xv in px.get(e, ()):
                    for yv in py.get(e, ()):
                        rows[(xv, yv)] += 1
            else:
                for s in (s for s, objects in px.items() if v in objects):
                    if spec.kind == "sel3":
                        for yv in py.get(s, ()):
                            for zv in pz.get(s, ()):
                                rows[(s, yv, zv)] += 1
                    elif spec.kind == "sel2":
                        for yv in py.get(s, ()):
                            rows[(s, yv)] += 1
                    else:
                        for w in pd.get(s, [None]):
                            rows[(s, w)] += 1
            out.append(encode_bag(self.d, rows))
        return out


# ---------------------------------------------------------------------------
# adaptive
# ---------------------------------------------------------------------------

ORACLE_MERGE_BUDGET = 400_000
RANDOM_MERGE_CAP = 10_000
MONTHS = ("jan", "feb", "mar", "apr", "may", "jun",
          "jul", "aug", "sep", "oct", "nov", "dec")


def fixture(name: str):
    """A constant of the test fixtures, read without importing pytest."""
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in tests/conftest.py")


def regular(rng: random.Random, n: int, sources: list[str], targets: list[str]):
    """n edges, every source with n // len(sources) distinct targets or one
    more, so that fan-outs, and with them query costs, barely vary by seed."""
    order = rng.sample(sources, len(sources))
    degree = Counter(order[i % len(order)] for i in range(n))
    return [(src, dst) for src, k in degree.items() for dst in rng.sample(targets, k)]


def eleven_pattern_triples(rng: random.Random, scale: float):
    """Data for the eleven-pattern example with the fixture's predicate
    counts (QE_PRED_COUNTS, with 70 of the type rows naming Post), scaled.

    Unlike the fixture, whose patterns never join, the terms come from
    small pools with regular degrees. Every Post-typed post replies and has
    a content and a creator, the correlation that independence estimates
    miss, and their contents cycle through the months, so that the months'
    queries together match each Post-typed post once.
    """
    counts = {p: max(2, round(n * scale)) for p, n in fixture("QE_PRED_COUNTS").items()}
    users, forums, posts, comments = (
        [f"{kind}{i}" for i in range(max(4, round(n * scale)))]
        for kind, n in (("u", 120), ("f", 100), ("p", 400), ("c", 300))
    )
    typed = rng.sample(posts, min(len(posts), max(2, round(70 * scale))))
    others = [p for p in posts if p not in set(typed)]
    t = []

    def add(pred, pairs):
        t.extend((s, pred, o) for s, o in pairs)

    def of_typed(pred, make):
        rest = counts[pred] - len(typed)
        add(pred, [make(j, p) for j, p in enumerate(typed)])
        add(pred, [make(len(typed) + i, rng.choice(others)) for i in range(rest)])

    add("has_member", regular(rng, counts["has_member"], forums, users))
    add("has_moderator", regular(rng, counts["has_moderator"], forums, users))
    add("creator_of", [(rng.choice(users), p) for p in typed + rng.sample(
        others, counts["creator_of"] - len(typed))])
    of_typed("reply_of", lambda j, p: (p, rng.choice(posts)))
    of_typed("content", lambda j, p: (p, f'"{MONTHS[j % 12]} note {j}"'))
    add("type", [(p, "Post") for p in typed])
    add("type", [(f"x{i}", f"Cls{i % 9}") for i in range(counts["type"] - len(typed))])
    add("follows", regular(rng, counts["follows"], users, users))
    add("created_by", regular(rng, counts["created_by"], comments, users))
    add("likes", regular(rng, counts["likes"], users, comments))
    add("email", [(users[i % len(users)], f'"mail{i}@example.org"')
                  for i in range(counts["email"])])
    add("knows", regular(rng, counts["knows"], users, users))
    add("pad", [(f"x{i}", f"y{i}") for i in range(counts["pad"])])
    return t


def medium_random_triples(rng: random.Random, n: int):
    """A dataset in the vocabulary of `tests/genqueries.py`, at a fixed size."""
    n_s, n_o = max(12, n // 25), max(12, n // 20)
    t = []
    for _ in range(n):
        s = f"s{rng.randrange(n_s)}"
        p = f"p{rng.randrange(10)}"
        r = rng.random()
        if r < 0.25:
            o = f'"lit{rng.randrange(8)}"'
        elif r < 0.6:
            o = f"s{rng.randrange(n_s)}"
        else:
            o = f"o{rng.randrange(n_o)}"
        t.append((s, p, o))
    return t


# instance parameters: correlated stars (posts, users, triples), fan-out
# (posts, hot posts, comments), eleven-pattern scale, random triples
ADAPTIVE_SIZES = {
    "full": dict(star=((60, 12, 2000), (90, 15, 2500)), fanout=(90, 5, 6000),
                 eleven=0.25, medium=1500),
    "tiny": dict(star=((12, 4, 200), (16, 5, 240)), fanout=(20, 3, 300),
                 eleven=0.1, medium=200),
}

# (kind, count per round)
ADAPTIVE_MIX = (("star", 40), ("fanout", 24), ("eleven", 24), ("random", 72))


class Adaptive(QueryWorkload):
    name = "adaptive"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.sizes = ADAPTIVE_SIZES[size]
        self.qe_text = fixture("QE_TEXT")
        rng = random.Random(f"{seed}/adaptive")
        self.medium = Dataset.from_strings(self._medium())
        self.specs = []
        for kind, count in ADAPTIVE_MIX:
            if size == "tiny":
                count = max(2, count // 8)
            for i in range(count):
                self.specs.append(getattr(self, f"_{kind}")(rng, i))

    def _instances(self) -> dict[str, list]:
        """Per-shape triple lists; IRIs carry the instance name as prefix so
        that each query only ever matches the triples of its own instance."""
        rng = random.Random(f"{self.seed}/instances")
        sz = self.sizes
        out = {"rnd/": self._medium()}
        for n, (posts, users, total) in enumerate(sz["star"]):
            out[f"cs{n}/"] = generated(
                datagen.correlated_star, total_triples=total, posts=posts,
                users=users, seed=rng.randrange(1 << 30))
        posts, hot, comments = sz["fanout"]
        out["af/"] = generated(
            datagen.adversarial_fanout, posts=posts, hot_posts=hot,
            comments=comments, seed=rng.randrange(1 << 30))
        out["qe/"] = eleven_pattern_triples(
            random.Random(rng.randrange(1 << 30)), sz["eleven"])
        return {
            name: (namespaced(name, t) if name != "rnd/" else t)
            for name, t in out.items()
        }

    def _medium(self):
        return medium_random_triples(random.Random(f"{self.seed}/rnd"), self.sizes["medium"])

    def build(self):
        self.instances = self._instances()
        triples = [t for ts in self.instances.values() for t in ts]
        return triples, to_ntriples(triples)

    def _star(self, rng: random.Random, i: int) -> QuerySpec:
        inst = f"cs{i % 2}/"
        posts, users, _ = self.sizes["star"][i % 2]
        text = datagen.CORRELATED_STAR_QUERY
        variant = i // 2 % 4
        if variant == 1:
            text = text.replace("?u <creator_of>", f"<user{rng.randrange(users)}> <creator_of>")
            text = text.replace("?p ?c ?u", "?p ?c")
        elif variant == 2:
            text = text.replace("?c .\n", f'?c .\n  FILTER regex(str(?c), "{rng.randrange(10)}$")\n')
        elif variant == 3:
            text = text.replace("?p <content> ?c", f'?p <content> "body-{rng.randrange(posts)}"')
            text = text.replace("?p ?c ?u", "?p ?u")
        return QuerySpec("star", namespaced_query(inst, text), inst)

    def _fanout(self, rng: random.Random, i: int) -> QuerySpec:
        _, hot, _ = self.sizes["fanout"]
        text = datagen.ADVERSARIAL_QUERY
        if i % 6 == 5:
            text = text.replace("GhostForum", f"forum{rng.randrange(hot, 7)}")
        else:
            text = text.replace(
                "?m <comment_on> ?p .\n",
                f'?m <comment_on> ?p .\n  FILTER regex(str(?m), "{rng.randrange(100)}$")\n')
        return QuerySpec("fanout", namespaced_query("af/", text), "af/")

    def _eleven(self, rng: random.Random, i: int) -> QuerySpec:
        # the example's case-insensitive regex, and its case-sensitive twin
        flag = ', "i"' if i < 12 else ""
        text = self.qe_text.replace('"sep", "i"', f'"{MONTHS[i % 12]}"{flag}')
        return QuerySpec("eleven", namespaced_query("qe/", text), "qe/")

    def _random(self, rng: random.Random, i: int) -> QuerySpec:
        """A query in genqueries' grammar with constant predicates only (a
        variable predicate would range over every instance of the shared
        dataset) that the oracle evaluates within RANDOM_MERGE_CAP row
        merges: the cap keeps cross products of whole predicate ranges,
        whose cost would swamp the rest of the round, out of the mix."""
        while True:
            text = genqueries.random_query_text(rng, max_tps=6)
            q = parse_query(text)
            if not any(tp.p.is_var() for tp in q.patterns) and \
                    _oracle_bag(q, self.medium, self.medium, RANDOM_MERGE_CAP) is not None:
                return QuerySpec("random", text, "rnd/")

    def expected(self) -> tuple[list, list[str]]:
        """Oracle bags where the oracle stays within its merge budget, and
        for every query the same bag from `static`, `eager` and `rosie`."""
        own = {name: Dataset.from_strings(t) for name, t in self.instances.items()}
        out, problems = [], []
        checked = 0
        for i, spec in enumerate(self.specs):
            q = parse_query(spec.text)
            bags = {kind: Counter(run(q, self.d, Policy(kind))[0].rows)
                    for kind in ("static", "eager", "rosie")}
            if not bags["static"] == bags["eager"] == bags["rosie"]:
                problems.append(f"query {i}: policies disagree: {spec.text!r}")
            oracle = _oracle_bag(q, own[spec.instance], self.d)
            if oracle is not None:
                checked += 1
                if oracle != bags["rosie"]:
                    problems.append(f"query {i}: rosie differs from the oracle: {spec.text!r}")
            out.append(bag_digest(bags["static"] if oracle is None else oracle))
        print(f"adaptive: oracle checked {checked} of {len(self.specs)} queries", file=sys.stderr)
        return out, problems


def _oracle_bag(q, own: Dataset, d: Dataset, budget: int = ORACLE_MERGE_BUDGET):
    """The oracle's bag on the query's own instance, in `d`'s term ids;
    None when it would take more than `budget` row merges."""
    try:
        with _merge_budget(budget):
            bag = naive_eval.evaluate_query(q, own)
    except _OverBudget:
        return None
    decode = own.dict.decode
    return encode_bag(d, Counter(
        {tuple(None if c is None else decode(c) for c in row): n
         for row, n in bag.items()}
    ))


class _OverBudget(Exception):
    pass


@contextmanager
def _merge_budget(limit: int):
    """Counts the oracle's row merges through its module-level `_merge`
    and aborts the evaluation once `limit` merges have been tried."""
    saved = naive_eval._merge
    left = [limit]

    def counted(mu1, mu2):
        left[0] -= 1
        if left[0] < 0:
            raise _OverBudget
        return saved(mu1, mu2)

    naive_eval._merge = counted
    try:
        yield
    finally:
        naive_eval._merge = saved


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

INGEST_SIZES = {"full": (16, 4000), "tiny": (3, 150)}
_NT_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _literal(lexical: str, suffix: str) -> str:
    return '"' + "".join(_NT_ESCAPES.get(c, c) for c in lexical) + '"' + suffix


def ingest_document(rng: random.Random, lines: int):
    """One N-Triples document and the set of distinct triples it states.

    Terms are written in the engine's documented canonical form, so the
    expected decoded triple is the written one. About 2% of the lines
    repeat an earlier triple and a few are comments.
    """
    subjects = max(8, lines // 6)
    triples: list[tuple[str, str, str]] = []
    out: list[str] = ["# seeded ingest document\n"]
    for i in range(lines):
        if triples and rng.random() < 0.02:
            triple = rng.choice(triples)
        else:
            s = (f"_:b{rng.randrange(subjects)}" if rng.random() < 0.1
                 else f"http://example.org/s{rng.randrange(subjects)}")
            p = f"http://example.org/p{rng.randrange(24)}"
            r = rng.random()
            if r < 0.4:
                o = f"http://example.org/o{rng.randrange(lines)}"
            elif r < 0.6:
                o = _literal(f"text {rng.randrange(lines)}\t\"quoted\"\\ é", "")
            elif r < 0.8:
                o = _literal(f"label {rng.randrange(lines)}", "@en")
            else:
                o = _literal(str(rng.randrange(10**6)), "^^<http://www.w3.org/2001/XMLSchema#integer>")
            triple = (s, p, o)
        triples.append(triple)
        out.append(" ".join(
            t if t[0] in '"_' else f"<{t}>" for t in triple) + " .\n")
        if i % 500 == 0:
            out.append("\n")
    return "".join(out).encode("utf-8"), set(triples)


class Ingest:
    """An operation loads one document, saves a snapshot of it and reopens
    the snapshot; no queries run."""

    name = "ingest"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.docs, self.lines = INGEST_SIZES[size]
        self.round_size = self.docs

    def setup(self) -> None:
        rng = random.Random(f"{self.seed}/ingest")
        docs = [ingest_document(rng, self.lines) for _ in range(self.docs)]
        self.blobs = [blob for blob, _ in docs]
        self.truth = [triples for _, triples in docs]

    def op(self, i: int, round_no: int):
        d = load_ntriples(io.BytesIO(self.blobs[i]))
        sink = io.BytesIO()
        snapshot_save(d, sink)
        sink.seek(0)
        return d, sink, snapshot_load(sink)

    @staticmethod
    def fingerprint(out) -> tuple[int, int, int]:
        d, sink, reopened = out
        return d.size, reopened.size, hash(sink.getvalue())

    def expected(self) -> tuple[list, list[str]]:
        """Both the loaded and the reopened dataset decode to exactly the
        distinct triples the generator wrote."""
        out, problems = [], []
        for i, truth in enumerate(self.truth):
            d, sink, reopened = result = self.op(i, 0)
            for label, ds in (("loaded", d), ("reopened", reopened)):
                decode = ds.dict.decode
                if {(decode(s), decode(p), decode(o)) for s, p, o in ds.triples()} != truth:
                    problems.append(f"document {i}: {label} triples differ from the written set")
            out.append((len(truth), len(truth), self.fingerprint(result)[2]))
        return out, problems


WORKLOADS = {w.name: w for w in (StarScale, Adaptive, Ingest)}
