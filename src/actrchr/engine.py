"""Abstract operational semantics of production-rule models.

States carry a chunk store, buffer contents with a binary delay flag and a
multiset of ground facts.  Two transition kinds exist: applying a matched
rule (modifications and requests, combined per effect) and the no-rule
step that reveals one pending buffer.  :func:`breadth_first` is the one
search: :func:`explore` runs it over states, deduplicating them exactly or
up to renaming of fresh chunk ids, and the bisimulation check over pairs.
Fresh identifiers (``c#n``) occur only as chunk ids and buffer contents:
the parser rejects ``c#`` names, slot values are parsed ids, and
:func:`interpret_request` rejects answers naming one.  On this invariant
:func:`canonical_key`, the package's one fresh-identifier canonicalisation,
keys parsed chunks as they are, buffer-held fresh ids renamed in buffer
name order and stale fresh chunks as a sorted multiset of contents; it
raises :class:`EngineError` on a state that breaks the invariant.  A key
reads the parts a successor's store derives from its parent's, so its
store part costs what the step adds and, with no buffer-held fresh chunk,
nothing; its few facts are keyed on each call.

So a rule's effects are fixed, up to the fresh ids they draw, by its
binding, the chunks its modifications copy and its requests' answers: a
:class:`Run` memoizes them, not a state, which is a plain value.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from typing import Callable, Iterable, Mapping, Optional

from .core import (
    FRESH_PREFIX,
    IdGen,
    NIL,
    Chunk,
    ChunkStore,
    Record,
    Symbol,
    TypeTable,
    Value,
    Variable,
    fresh_gen_avoiding,
    is_fresh_id,
    merge,
)
from .model import (
    AbstractState,
    Action,
    Atom,
    BufferTest,
    MODIFY,
    NO_LABEL,
    Model,
    Pair,
    Rule,
    check_rows,
    sort_atoms,
)


class EngineError(Exception):
    """Semantic precondition violated while running a model."""


class MissingIncumbent(EngineError):
    """An action addressed a buffer the state does not carry."""


class NoHandler(EngineError):
    """A request addressed a buffer without a configured handler."""


class DomainOverlap(EngineError):
    """Two combined effects set the same buffer."""


def apply_label(rule_name: str) -> str:
    return f"apply({rule_name})"


# ---------------------------------------------------------------------------
# substitutions and matching


def _subst_pairs(pairs: Iterable[Pair], theta: Mapping[Variable, Value]) -> tuple[Pair, ...]:
    """The pairs with every variable bound in ``theta`` replaced."""
    return tuple((s, theta.get(v, v) if isinstance(v, Variable) else v) for s, v in pairs)


def match_rule(rule: Rule, state: AbstractState) -> dict[Variable, Symbol] | None:
    """The unique binding of the rule's variables in the state, or None.

    Every tested buffer must hold a visible (delay 0) chunk of the tested
    type whose slot values agree with the test pairs.
    """
    bindings: dict[Variable, Symbol] = {}
    for t in rule.tests:
        try:
            cid, delay = state.buffer(t.buffer)
        except KeyError:
            return None
        if delay != 0:
            return None
        chunk = state.store.get(cid)
        if chunk is None or chunk.type != t.type:
            return None
        for s, v in t.pairs:
            actual = chunk.value(s)
            if actual is None:
                return None
            if isinstance(v, Variable):
                bound = bindings.get(v)
                if bound is None:
                    bindings[v] = actual
                elif bound != actual:
                    return None
            elif v != actual:
                return None
    return bindings


def select(
    state: AbstractState, rules: Iterable[Rule]
) -> list[tuple[Rule, dict[Variable, Symbol]]]:
    """All rules applicable in the state, with their bindings."""
    out = []
    for r in rules:
        theta = match_rule(r, state)
        if theta is not None:
            out.append((r, theta))
    return out


# ---------------------------------------------------------------------------
# set normal form


class _Dropped:
    """Marker for rules that cannot match any state."""

    def __repr__(self) -> str:
        return "Dropped"


DROPPED = _Dropped()

_NORMAL_VAR_PREFIX = "V#"


def _dedup(pairs: Iterable[Pair]) -> list[Pair]:
    return list(dict.fromkeys(pairs))


def _merge_tests(rule: Rule) -> list[BufferTest] | _Dropped:
    """Union same-buffer tests; two types on one buffer can never match."""
    order: list[Symbol] = []
    merged: dict[Symbol, tuple[Symbol, list[Pair]]] = {}
    for t in rule.tests:
        entry = merged.get(t.buffer)
        if entry is None:
            order.append(t.buffer)
            merged[t.buffer] = (t.type, _dedup(t.pairs))
        elif entry[0] != t.type:
            return DROPPED
        else:
            entry[1].extend(p for p in t.pairs if p not in entry[1])
    return [
        BufferTest(b, merged[b][0], tuple(merged[b][1]), None) for b in order
    ]


def _subst_rule(tests: list[BufferTest], actions: tuple[Action, ...], theta: dict[Variable, Value]):
    new_tests = [
        BufferTest(t.buffer, t.type, tuple(_dedup(_subst_pairs(t.pairs, theta))), t.span)
        for t in tests
    ]
    new_actions = tuple(
        Action(a.kind, a.buffer, a.type, _subst_pairs(a.pairs, theta), a.span)
        for a in actions
    )
    return new_tests, new_actions


def set_normal_form(rule: Rule, types: TypeTable):
    """Rewrite a rule so every test carries exactly one pair per slot.

    Missing slots gain fresh variables, duplicated slots collapse by
    substituting the shared value through the whole rule, and rules that
    pin one slot to two distinct constants are returned as :data:`DROPPED`
    because no state can satisfy them.  The rewritten rule matches exactly
    the states the original matches.  Slots are visited by name, so the
    ``V#n`` names do not depend on declared slot order; a name the rule
    already uses is skipped.
    """
    merged = _merge_tests(rule)
    if merged is DROPPED:
        return DROPPED
    tests = merged
    actions = rule.actions
    taken = {v.name for v in rule.lhs_vars() | rule.rhs_vars()}
    names = (f"{_NORMAL_VAR_PREFIX}{n}" for n in itertools.count())
    fresh = (Variable(name) for name in names if name not in taken)

    while True:
        collapse: tuple[Symbol, Symbol, list[Value]] | None = None
        for t in tests:
            for s in sorted(types.slots(t.type), key=lambda s: s.name):
                vs = [v for slot, v in t.pairs if slot == s]
                if len(vs) > 1:
                    collapse = (t.buffer, s, vs)
                    break
            if collapse:
                break
        if collapse is None:
            break
        _, _, vs = collapse
        consts = [v for v in vs if isinstance(v, Symbol)]
        if len(set(consts)) > 1:
            return DROPPED
        if consts:
            target: Value = consts[0]
        else:
            target = next(fresh)
        theta = {v: target for v in vs if isinstance(v, Variable) and v != target}
        tests, actions = _subst_rule(tests, actions, theta)

    filled = []
    for t in tests:
        pairs = list(t.pairs)
        present = {s for s, _ in pairs}
        for s in sorted(types.slots(t.type), key=lambda s: s.name):
            if s not in present:
                pairs.append((s, next(fresh)))
        filled.append(BufferTest(t.buffer, t.type, types.ordered(t.type, pairs), t.span))
    return Rule(rule.name, tuple(filled), actions, rule.span)


def is_normal_form(rule: Rule, types: TypeTable) -> bool:
    seen_buffers = set()
    for t in rule.tests:
        if t.buffer in seen_buffers:
            return False
        seen_buffers.add(t.buffer)
        slots = types.slots(t.type)
        counts = {s: 0 for s in slots}
        for s, _ in t.pairs:
            if s not in counts:
                return False
            counts[s] += 1
        if any(c != 1 for c in counts.values()):
            return False
    return True


def normalize_model(model: Model) -> Model:
    """Normalize every rule; rules that can never match are removed."""
    rules = []
    for r in model.rules:
        n = set_normal_form(r, model.types)
        if n is not DROPPED:
            rules.append(n)
    return Model(
        types=model.types,
        chunks=model.chunks,
        dm=model.dm,
        buffers=model.buffers,
        init=model.init,
        rules=tuple(rules),
    )


# ---------------------------------------------------------------------------
# actions and effects


class Effect(Record):
    """Partial successor description: new chunks, buffer updates, facts."""

    __slots__ = ("store", "gamma", "atoms")

    def __init__(self, store: ChunkStore, gamma: tuple[tuple[Symbol, Symbol, int], ...],
                 atoms: tuple[Atom, ...]) -> None:
        self.store, self.gamma, self.atoms = store, gamma, atoms

    @staticmethod
    def make(
        store: ChunkStore,
        gamma: Mapping[Symbol, tuple[Symbol, int]],
        atoms: Iterable[Atom] = (),
    ) -> "Effect":
        rows = tuple(sorted(((b, c, d) for b, (c, d) in gamma.items()), key=lambda r: r[0].name))
        return Effect(store, rows, tuple(atoms))

    def buffers(self) -> set[Symbol]:
        return {b for b, _, _ in self.gamma}


EMPTY_EFFECT = Effect(ChunkStore(), (), ())


class Answer(Record):
    """One request result: chunk content, delay and extra facts."""

    __slots__ = ("type", "val", "delay", "atoms")

    def __init__(self, type: Symbol, val: tuple[tuple[Symbol, Symbol], ...], delay: int = 1,
                 atoms: tuple[Atom, ...] = ()) -> None:
        self.type, self.val, self.delay, self.atoms = type, val, delay, atoms


Handler = Callable[[Symbol, tuple[Pair, ...], AbstractState], list[Answer]]


def declarative_retrieval(
    type: Symbol, pairs: tuple[Pair, ...], state: AbstractState
) -> list[Answer]:
    """Default handler: every declarative-memory chunk of the requested
    type whose slots agree with the request, delivered pending."""
    out = []
    for atom in state.upsilon:
        if atom.pred != "dm" or len(atom.args) != 1:
            continue
        chunk = state.store.get(atom.args[0])
        if chunk is None or chunk.type != type:
            continue
        if all(chunk.value(s) == v for s, v in pairs):
            out.append(Answer(chunk.type, chunk.pairs, 1, ()))
    return out


FAIL_NIL = "nil"
FAIL_STUCK = "stuck"


class ArchitectureConfig(Record):
    """Pluggable pieces of the machine: request handlers and the policy
    for requests that produce no answer."""

    __slots__ = ("handlers", "default_handler", "fail_request")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, handlers: Optional[dict[Symbol, Handler]] = None,
                 default_handler: Optional[Handler] = declarative_retrieval,
                 fail_request: str = FAIL_NIL) -> None:
        if fail_request not in (FAIL_NIL, FAIL_STUCK):
            raise ValueError(f"unknown fail_request policy {fail_request!r}")
        self.handlers = {} if handlers is None else handlers
        self.default_handler, self.fail_request = default_handler, fail_request

    def handler_for(self, buffer: Symbol) -> Optional[Handler]:
        return self.handlers.get(buffer, self.default_handler)


def _ground_pairs(action: Action) -> tuple[tuple[Symbol, Symbol], ...]:
    for s, v in action.pairs:
        if not isinstance(v, Symbol):
            raise EngineError(f"unbound variable {v!r} in action on {action.buffer}")
    return action.pairs  # type: ignore[return-value]


def interpret_modification(
    action: Action, state: AbstractState, ids: IdGen
) -> list[Effect]:
    """Replace the buffer's chunk by a fresh-id copy with updated slots.

    Update values that do not name a chunk of the store fall back to nil;
    update slots outside the incumbent's type are ignored.
    """
    updates = dict(_ground_pairs(action))
    try:
        cid, _ = state.buffer(action.buffer)
    except KeyError:
        raise MissingIncumbent(f"no buffer {action.buffer}") from None
    incumbent = state.store.get(cid)
    if incumbent is None:
        raise MissingIncumbent(f"buffer {action.buffer} holds unknown chunk {cid}")
    new_pairs = []
    for s, old in incumbent.pairs:
        if s in updates:
            v = updates[s]
            new_pairs.append((s, v if v in state.store else NIL))
        else:
            new_pairs.append((s, old))
    fresh = ids.fresh()
    copy = Chunk(fresh, incumbent.type, new_pairs)
    return [Effect(ChunkStore([copy]), ((action.buffer, fresh, 0),), ())]


def interpret_request(
    action: Action, state: AbstractState, config: ArchitectureConfig, ids: IdGen
) -> list[Effect]:
    """One effect per handler answer, each under a fresh identifier.

    An answer whose type, slots, slot values or fact arguments are not
    symbols, whose delay is not an integer, that repeats a slot, or whose
    pairs or facts name a fresh identifier (breaking the fresh-id
    invariant), raises :class:`EngineError`.

    An empty answer set either parks the nil chunk pending in the buffer
    (fail_request="nil", the default) or yields no effect at all
    (fail_request="stuck"), in which case the rule produces no transition.
    """
    handler = config.handler_for(action.buffer)
    if handler is None:
        raise NoHandler(f"no request handler for buffer {action.buffer}")
    pairs = _ground_pairs(action)
    effects = []
    for ans in handler(action.type, pairs, state):
        if not (isinstance(ans.type, Symbol)
                and all(isinstance(s, Symbol) and isinstance(v, Symbol) for s, v in ans.val)):
            raise EngineError(f"type, slot or slot value not a symbol in an answer on {action.buffer}: {ans!r}")
        if not isinstance(ans.delay, int):
            raise EngineError(f"delay not an integer in an answer on {action.buffer}: {ans.delay!r}")
        for v in [v for _, v in ans.val] + [x for a in ans.atoms for x in a.args]:
            if is_fresh_id(v):
                raise EngineError(f"fresh id {v} named by an answer on {action.buffer}")
        if len(dict(ans.val)) != len(ans.val):
            raise EngineError(f"slot repeated by an answer on {action.buffer}")
        for a in ans.atoms:
            if not all(isinstance(x, Symbol) for x in a.args):
                raise EngineError(f"fact over a non-symbol in an answer on {action.buffer}: {a!r}")
        fresh = ids.fresh()
        chunk = Chunk(fresh, ans.type, ans.val)
        delay = 1 if ans.delay > 0 else 0
        effects.append(Effect(ChunkStore([chunk]), ((action.buffer, fresh, delay),), tuple(ans.atoms)))
    if effects:
        return effects
    if config.fail_request == FAIL_NIL:
        return [Effect(ChunkStore(), ((action.buffer, NIL, 1),), ())]
    return []


def interpret_action(
    action: Action, state: AbstractState, config: ArchitectureConfig, ids: IdGen
) -> list[Effect]:
    if action.kind == MODIFY:
        return interpret_modification(action, state, ids)
    return interpret_request(action, state, config, ids)


def combine_effects(left: Effect, right: Effect) -> Effect:
    """Glue two effects: merged stores, disjoint buffer updates, joined
    facts.  The two sorted row tuples are re-sorted only when joining them
    puts rows out of order."""
    overlap = left.buffers() & right.buffers()
    if overlap:
        raise DomainOverlap(f"effects overlap on buffers {sorted(overlap, key=str)}")
    gamma = left.gamma + right.gamma
    if left.gamma and right.gamma and left.gamma[-1][0].name > right.gamma[0][0].name:
        gamma = tuple(sorted(gamma, key=lambda r: r[0].name))
    return Effect(merge(left.store, right.store), gamma, left.atoms + right.atoms)


def interpret_rule(
    rule: Rule,
    theta: dict[Variable, Symbol],
    state: AbstractState,
    config: ArchitectureConfig,
    ids: IdGen,
) -> list[Effect]:
    """All combined effects of the rule's actions under the binding.

    Actions are interpreted independently in the given state and their
    effect sets combined pairwise, folded from the first action's set (no
    actions yield ``[EMPTY_EFFECT]``); sequential fresh identifiers keep the
    partial stores disjoint.  An action whose pairs hold no variable is
    used as it is.  The result is non-empty unless a request comes back
    empty under fail_request="stuck".
    """
    combos = None
    for action in rule.actions:
        ground = action
        if any(isinstance(v, Variable) for _, v in action.pairs):
            ground = Action(action.kind, action.buffer, action.type, _subst_pairs(action.pairs, theta))
        parts = interpret_action(ground, state, config, ids)
        combos = parts if combos is None else [combine_effects(a, p) for a in combos for p in parts]
        if not combos:
            break
    return [EMPTY_EFFECT] if combos is None else combos


def _memo_key(theta: dict[Variable, Symbol], state: AbstractState, copied: tuple[Symbol, ...]):
    """A step's key in its rule's memo table (see :class:`Run`): the fact
    tuple by identity, the binding and the content of the chunk each
    buffer of ``copied`` holds."""
    contents = []
    for buffer in copied:
        chunk = None  # with no incumbent the step raises, and is not recorded
        for b, c, _ in state.gamma:
            if b is buffer:
                chunk = state.store.get(c)
                break
        contents.append(chunk and chunk._content[0])
    return (id(state.upsilon), tuple(theta.items()), tuple(contents))


class Run(Record):
    """One side of a run: its configuration, fresh-id supply and memo.

    :meth:`effects` memoizes a rule whose requests all go to
    :func:`declarative_retrieval`: ``memo`` maps its id to the rule, the
    buffers its modifications copy (None if not memoized) and its table,
    keyed by :func:`_memo_key`, exact as answers and update values name
    only parsed chunks and facts.  An entry keeps its rule and fact tuple
    alive, so their ids stay unique.  A hit draws as many ids as its miss
    did, in order, and renames the recorded chunks and rows; a step that
    raises records nothing.

    That is the abstract side's use of ``memo``.  On the CHR side,
    :func:`~actrchr.chr.chr_step` hands it to the ``action`` built-in,
    which keys it over chunk terms by code of its own (see
    :func:`~actrchr.chr._solve_action`); a run serves one side only."""

    __slots__ = ("config", "ids", "memo")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, config: ArchitectureConfig, ids: IdGen) -> None:
        self.config, self.ids, self.memo = config, ids, {}

    def effects(self, rule: Rule, theta: dict[Variable, Symbol], state: AbstractState) -> list[Effect]:
        """The rule's effects under the binding, as :func:`interpret_rule`."""
        entry = self.memo.get(id(rule))
        if entry is None:
            handlers = [self.config.handler_for(a.buffer) for a in rule.actions if a.kind != MODIFY]
            copied = tuple([a.buffer for a in rule.actions if a.kind == MODIFY])
            memoized = all(h is declarative_retrieval for h in handlers)
            entry = self.memo[id(rule)] = (rule, copied if memoized else None, {})
        key = None if entry[1] is None else _memo_key(theta, state, entry[1])
        if key is None:
            return interpret_rule(rule, theta, state, self.config, self.ids)
        hit = entry[2].get(key)
        if hit is not None:
            if not hit[1]:
                return list(hit[2])
            ren = {old: self.ids.fresh() for old in hit[1]}  # injective: one counter drew them
            return [Effect(e.store.renamed(ren), tuple([(b, ren.get(c, c), d) for b, c, d in e.gamma]),
                           e.atoms) for e in hit[2]]
        start = self.ids.count
        effects = interpret_rule(rule, theta, state, self.config, self.ids)
        drawn = [Symbol(f"{FRESH_PREFIX}{n}") for n in range(start, self.ids.count)]
        entry[2][key] = (state.upsilon, drawn, tuple(effects))
        return effects


# ---------------------------------------------------------------------------
# transitions


def apply_transition(state: AbstractState, effect: Effect) -> AbstractState:
    """Successor state: merged store, updated buffers, grown fact set.  It
    keeps the parent's checked rows and facts (see :meth:`AbstractState.make`)
    and checks only the rows the effect sets."""
    store = merge(state.store, effect.store)
    check_rows(store, effect.gamma)
    rows = {r[0]: r for r in effect.gamma}
    gamma = tuple([rows.pop(r[0], r) for r in state.gamma])
    if rows:
        gamma = tuple(sorted(gamma + tuple(rows.values()), key=lambda r: r[0].name))
    upsilon = sort_atoms(state.upsilon + effect.atoms) if effect.atoms else state.upsilon
    return AbstractState(store, gamma, upsilon)


def no_rule_successors(state: AbstractState) -> list[tuple[str, AbstractState]]:
    """One successor per pending buffer, revealing exactly that buffer; it
    shares the parent's store and facts."""
    out = []
    for i, (b, c, d) in enumerate(state.gamma):
        if d > 0:
            gamma = state.gamma[:i] + ((b, c, 0),) + state.gamma[i + 1:]
            out.append((NO_LABEL, AbstractState(state.store, gamma, state.upsilon)))
    return out


def fresh_gen_for(state: AbstractState) -> IdGen:
    """Generator whose identifiers avoid every chunk id in the store, and so
    every fresh id in the state (see the module docstring)."""
    return fresh_gen_avoiding(state.store.ids())


def successors(state: AbstractState, model: Model, run: Run | None = None) -> list[tuple[str, AbstractState]]:
    """Labelled successor set: apply(<rule>) edges, then no edges; by default in a run of its own."""
    if run is None:
        run = Run(ArchitectureConfig(), fresh_gen_for(state))
    out = []
    for rule, theta in select(state, model.rules):
        for effect in run.effects(rule, theta, state):
            out.append((apply_label(rule.name), apply_transition(state, effect)))
    out.extend(no_rule_successors(state))
    return out


# ---------------------------------------------------------------------------
# canonical key and exploration


def canonical_key(state: AbstractState):
    """Hashable form of a state, equal exactly for states that differ only
    in the choice of fresh identifiers (see the module docstring).  Each
    buffer-held fresh chunk's content moves out of the store's stale
    multiset and its renamed entry goes in among the parsed ones, which
    sort before or after every ``c#`` name.  A store records its first
    fresh id in a slot once; every key of a state over it raises it."""
    parsed, stale, bad = state.store.key_parts()
    if bad is not None:
        raise EngineError(f"fresh id {bad[0]} named by a slot of chunk {bad[1]}")
    by_id = state.store._by_id
    ren: dict[Symbol, str] = {}
    gamma = []
    held = []
    for b, c, d in state.gamma:
        name = c.name
        if name.startswith(FRESH_PREFIX):
            name = ren.get(c)
            if name is None:
                ren[c] = name = f"{FRESH_PREFIX}{len(ren)}"
                chunk = by_id.get(c)
                if chunk is not None:
                    names = chunk._content[0]
                    i = bisect_left(stale, names)
                    stale = stale[:i] + stale[i + 1:]
                    held.append((name, *names))
        gamma.append((b.name, name, d))
    if held:
        held.sort()
        at = bisect_left(parsed, (FRESH_PREFIX,))
        parsed = parsed[:at] + tuple(held) + parsed[at:]
    atoms = []
    for a in state.upsilon:
        names, fresh = a._content
        if fresh is not None:
            raise EngineError(f"fresh id {fresh} named by a fact")
        atoms.append(names)
    atoms.sort()
    return (parsed, stale, tuple(gamma), tuple(atoms))


def state_fingerprint(state: AbstractState) -> str:
    """Short stable hash of the canonical state form."""
    import hashlib  # here, so that importing the package does not load it

    return hashlib.sha256(repr(canonical_key(state)).encode()).hexdigest()[:12]


DEDUP_EXACT = "exact"
DEDUP_CANONICAL = "canonical"


class Graph(Record):
    """Reachable labelled transition graph; node 0 is the initial state."""

    __slots__ = ("states", "edges", "truncated")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, states: list[AbstractState], edges: list[tuple[int, str, int]],
                 truncated: bool = False) -> None:
        self.states, self.edges, self.truncated = states, edges, truncated


def breadth_first(root, root_key, expand: Callable, depth: int, edges: list | None = None):
    """The package's one breadth-first search.  It yields ``(index, node,
    depth)`` in visit order; resumed, it expands a node below the bound:
    of ``expand(node, depth)``'s ``(label, key, child)`` triples, a new key
    queues its child, and each ``(index, label, child index)`` edge is put in ``edges``."""
    if depth < 0:
        raise ValueError(f"depth bound must be non-negative, not {depth}")
    nodes = [(root, 0)]
    index = {root_key: 0}
    for i, (node, d) in enumerate(nodes):
        yield i, node, d
        if d < depth:
            for label, key, child in expand(node, d):
                j = index.setdefault(key, len(nodes))
                if j == len(nodes):
                    nodes.append((child, d + 1))
                if edges is not None:
                    edges.append((i, label, j))


def explore(
    model: Model,
    config: ArchitectureConfig | None = None,
    depth: int = 16,
    dedup: str = DEDUP_CANONICAL,
) -> Graph:
    """Reachable graph up to the depth bound, by :func:`breadth_first`.

    ``dedup="canonical"`` identifies states up to fresh-identifier
    renaming; ``"exact"`` requires literal equality.  ``truncated`` is set
    when a state lies at the bound, even one without successors.
    """
    start = model.initial_state()
    run = Run(config or ArchitectureConfig(), fresh_gen_for(start))

    if dedup == DEDUP_CANONICAL:
        key = canonical_key
    elif dedup == DEDUP_EXACT:
        def key(s: AbstractState):
            return s
    else:
        raise ValueError(f"unknown dedup mode {dedup!r}")

    def expand(state: AbstractState, _depth: int):
        return [(label, key(s2), s2) for label, s2 in successors(state, model, run)]

    edges: list[tuple[int, str, int]] = []
    visits = list(breadth_first(start, key(start), expand, depth, edges))
    return Graph([s for _, s, _ in visits], list(dict.fromkeys(edges)), visits[-1][2] == depth)


def random_walk(
    model: Model,
    config: ArchitectureConfig | None = None,
    depth: int = 16,
    rng: random.Random | None = None,
) -> list[tuple[str, AbstractState]]:
    """Seeded derivation: pick uniformly among successors until no
    transition is possible or the depth bound is hit."""
    if depth < 0:
        raise ValueError(f"depth bound must be non-negative, not {depth}")
    rng = rng or random.Random(0)
    state = model.initial_state()
    run = Run(config or ArchitectureConfig(), fresh_gen_for(state))
    steps = []
    for _ in range(depth):
        succ = successors(state, model, run)
        if not succ:
            break
        label, state = rng.choice(succ)
        steps.append((label, state))
    return steps


def to_dot(graph: Graph) -> str:
    """Graphviz text for an explored graph; deterministic for equal input."""
    lines = ["digraph model {", "  rankdir=LR;"]
    for i, s in enumerate(graph.states):
        shape = "doublecircle" if i == 0 else "circle"
        lines.append(
            f'  n{i} [shape={shape} label="{i}:{state_fingerprint(s)}"];'
        )
    for a, label, b in graph.edges:
        lines.append(f'  n{a} -> n{b} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
