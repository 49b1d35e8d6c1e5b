"""Seeded random policy/instance generation for differential testing.

Instances stay desk-scale on purpose: at most a handful of axioms and
symbols, rational magnitudes bounded at 10^6, so the brute-force oracle
stays trivially fast while the generator still covers the whole
comparison/connective space, derived-concept chains, scope mismatches,
missing facts, and wrong-kind probes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .compiler import PolicyEnvironment, compile_source
from .kernel import ActionRequest, SystemState
from .syntax import (
    Axiom,
    Binary,
    BoolLit,
    BoolOp,
    Compare,
    ConceptDecl,
    Expr,
    Lit,
    Name,
    PolicyAst,
    StrLit,
    Unary,
    print_policy,
)
from .values import Money

TOOLS = ("execute_trade", "transfer_funds", "cancel_order", "rebalance")
TEXT_POOL = ("AAPL", "MSFT", "GOOG", "bond", "swap")
UNITS = (None, None, None, "shares", "pct")
CURRENCIES = ("USD", "EUR")
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
ORDER_OPS = ("<", "<=", ">", ">=")

# Explain templates carry no digits so that every numeral a notice renders
# provably originates in the proof trace.
TEMPLATES = (
    "Limit check failed for {0}.",
    "The value {0} is outside the allowed band.",
    "{0} conflicts with {1} under the active policy.",
    "Request rejected because {0} crossed its threshold.",
)


@dataclass
class Instance:
    source: str
    env: PolicyEnvironment
    request: ActionRequest
    state: SystemState


# The most concepts, derived ones included, and axioms a policy declares.
MAX_SYMBOLS = 12
MAX_AXIOMS = 8


class PolicyGenerator:
    def __init__(
        self,
        rng: random.Random,
        *,
        drop_prob: float = 0.12,
        mutate_prob: float = 0.08,
        alien_tool_prob: float = 0.08,
    ) -> None:
        self.rng = rng
        self.drop_prob = drop_prob
        self.mutate_prob = mutate_prob
        self.alien_tool_prob = alien_tool_prob

    # Concepts -----------------------------------------------------------

    def _gen_concepts(self) -> list[ConceptDecl]:
        rng = self.rng
        count = rng.randint(2, MAX_SYMBOLS - 2)
        concepts: list[ConceptDecl] = []
        for i in range(count):
            roll = rng.random()
            origin = "request" if rng.random() < 0.4 else "state"
            if roll < 0.40:
                decl = ConceptDecl(f"qty{i}", "quantity", f"Concept qty{i}",
                                   origin, unit=rng.choice(UNITS))
            elif roll < 0.65:
                decl = ConceptDecl(f"mny{i}", "money", f"Concept mny{i}",
                                   origin, ccy=rng.choice(CURRENCIES))
            elif roll < 0.80:
                decl = ConceptDecl(f"flg{i}", "flag", f"Concept flg{i}", origin)
            elif roll < 0.90:
                atoms = tuple(f"enm{i}_a{j}" for j in range(rng.randint(2, 4)))
                decl = ConceptDecl(f"enm{i}", "enum", f"Concept enm{i}",
                                   origin, atoms=atoms)
            else:
                decl = ConceptDecl(f"txt{i}", "text", f"Concept txt{i}", origin)
            concepts.append(decl)
        return concepts

    def _by_kind(self, concepts: list[ConceptDecl], kind: str) -> list[ConceptDecl]:
        return [c for c in concepts if c.kind == kind]

    def _gen_derived(self, concepts: list[ConceptDecl]) -> None:
        """Append up to two derived concepts over those already declared."""
        rng = self.rng
        budget = MAX_SYMBOLS - len(concepts)
        for i in range(rng.randint(0, min(2, max(0, budget)))):
            symbol = f"drv{i}"
            moneys = self._by_kind(concepts, "money")
            scalars = [c for c in self._by_kind(concepts, "quantity") if c.unit is None]
            choice = rng.random()
            if choice < 0.4 and moneys and scalars:
                money = rng.choice(moneys)
                expr: Expr = Binary("*", Name(rng.choice(scalars).symbol),
                                    Name(money.symbol))
                concepts.append(ConceptDecl(symbol, "money",
                                            f"Derived amount {symbol}",
                                            "derived", money.ccy, derived=expr))
            elif choice < 0.7 and moneys:
                money = rng.choice(moneys)
                expr = Binary("*", self._literal(), Name(money.symbol))
                concepts.append(ConceptDecl(symbol, "money",
                                            f"Scaled amount {symbol}",
                                            "derived", money.ccy, derived=expr))
            elif scalars:
                left = rng.choice(scalars)
                expr = Binary(rng.choice(("+", "-", "*")), Name(left.symbol),
                              rng.choice([self._literal(),
                                          Name(rng.choice(scalars).symbol)]))
                concepts.append(ConceptDecl(symbol, "quantity",
                                            f"Derived quantity {symbol}",
                                            "derived", derived=expr))

    # Expressions --------------------------------------------------------

    def _literal(self, *, nonzero: bool = False) -> Lit:
        rng = self.rng
        num = rng.randint(1 if nonzero else 0, 10**6)
        den = rng.randint(1, 10**6)
        return Lit(Fraction(num, den))

    def _quantity_expr(self, pool: list[ConceptDecl], unit: str | None) -> Expr:
        rng = self.rng
        same_unit = [c for c in pool if c.unit == unit]
        base: Expr = Name(rng.choice(same_unit).symbol)
        roll = rng.random()
        if roll < 0.25:
            return Binary("*", self._literal(), base)
        if roll < 0.4:
            return Binary("/", base, self._literal(nonzero=True))
        if roll < 0.55 and len(same_unit) > 1:
            other = Name(rng.choice(same_unit).symbol)
            return Binary(rng.choice(("+", "-")), base, other)
        return base

    def _money_expr(self, pool: list[ConceptDecl], ccy: str) -> Expr:
        rng = self.rng
        same = [c for c in pool if c.ccy == ccy]
        base: Expr = Name(rng.choice(same).symbol)
        roll = rng.random()
        if roll < 0.3:
            return Binary("*", self._literal(), base)
        if roll < 0.45:
            return Binary("/", base, self._literal(nonzero=True))
        if roll < 0.6 and len(same) > 1:
            other = Name(rng.choice(same).symbol)
            return Binary(rng.choice(("+", "-")), base, other)
        return base

    def _comparison(self, concepts: list[ConceptDecl]) -> Expr | None:
        rng = self.rng
        quantities = self._by_kind(concepts, "quantity")
        moneys = self._by_kind(concepts, "money")
        flags = self._by_kind(concepts, "flag")
        enums = self._by_kind(concepts, "enum")
        texts = self._by_kind(concepts, "text")

        options = []
        if quantities:
            options.append("qty")
        if moneys:
            options.append("money")
        if flags:
            options.append("flag")
        if enums:
            options.append("enum")
        if texts:
            options.append("text")
        if not options:
            return None
        pick = rng.choice(options)

        if pick == "qty":
            concept = rng.choice(quantities)
            left = self._quantity_expr(quantities, concept.unit)
            if rng.random() < 0.5:
                right: Expr = self._literal()
                if concept.unit is not None and rng.random() < 0.5:
                    right = self._quantity_expr(quantities, concept.unit)
            else:
                right = self._quantity_expr(quantities, concept.unit)
            return Compare(rng.choice(CMP_OPS), left, right)
        if pick == "money":
            ccy = rng.choice(moneys).ccy
            left = self._money_expr(moneys, ccy)
            right = self._money_expr(moneys, ccy)
            return Compare(rng.choice(CMP_OPS), left, right)
        if pick == "flag":
            concept = rng.choice(flags)
            roll = rng.random()
            if roll < 0.4:
                return Name(concept.symbol)
            if roll < 0.6:
                return Unary("not", Name(concept.symbol))
            return Compare(rng.choice(("==", "!=")), Name(concept.symbol),
                           BoolLit(rng.random() < 0.5))
        if pick == "enum":
            concept = rng.choice(enums)
            atom = rng.choice(concept.atoms)
            return Compare(rng.choice(("==", "!=")), Name(concept.symbol),
                           Name(atom))
        concept = rng.choice(texts)
        return Compare(rng.choice(("==", "!=")), Name(concept.symbol),
                       StrLit(rng.choice(TEXT_POOL)))

    def _condition(self, concepts: list[ConceptDecl], depth: int = 0) -> Expr | None:
        rng = self.rng
        if depth >= 2 or rng.random() < 0.55:
            return self._comparison(concepts)
        left = self._condition(concepts, depth + 1)
        right = self._condition(concepts, depth + 1)
        if left is None or right is None:
            return left or right
        node = BoolOp(rng.choice(("and", "or")), left, right)
        if rng.random() < 0.2:
            return Unary("not", node)
        return node

    # Whole policies -----------------------------------------------------

    def gen_policy(self) -> tuple[str, PolicyEnvironment] | None:
        rng = self.rng
        concepts = self._gen_concepts()
        self._gen_derived(concepts)
        items: list = list(concepts)

        n_axioms = rng.randint(0, MAX_AXIOMS)
        for i in range(n_axioms):
            condition = self._condition(concepts)
            if condition is None:
                continue
            effect = "forbid" if rng.random() < 0.45 else "permit"
            tool = "*" if rng.random() < 0.2 else rng.choice(TOOLS)
            explain = None
            if rng.random() < 0.7:
                # Prefer numeric symbols so interpolations carry values worth
                # checking against the trace.
                numeric = [c.symbol for c in concepts
                           if c.kind in ("quantity", "money")]
                other = [c.symbol for c in concepts
                         if c.kind not in ("quantity", "money")]
                rng.shuffle(numeric)
                refs = (numeric + [s for s in other if rng.random() < 0.2])[:2]
                template = rng.choice(TEMPLATES)
                if "{1}" in template and len(refs) >= 2:
                    explain = template.format("{%s}" % refs[0], "{%s}" % refs[1])
                elif "{1}" not in template and refs:
                    explain = template.format("{%s}" % refs[0])
            items.append(Axiom(
                id=f"ax{i}", effect=effect, tool=tool,
                condition=condition, explain=explain,
            ))

        source = print_policy(PolicyAst(items=tuple(items)))
        result = compile_source(source)
        if result.environment is None:
            raise AssertionError(
                "generator produced an uncompilable policy:\n" + source + "\n" +
                "\n".join(d.render() for d in result.diagnostics)
            )
        return source, result.environment

    # Values -------------------------------------------------------------

    def _value_for(self, decl) -> object:
        rng = self.rng
        if decl.kind == "quantity":
            return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
        if decl.kind == "money":
            return Money(Fraction(rng.randint(-(10**6), 10**6)), decl.ccy)
        if decl.kind == "flag":
            return rng.random() < 0.5
        if decl.kind == "enum":
            return rng.choice(decl.atoms)
        return rng.choice(TEXT_POOL)

    def _wrong_kind_value(self, decl) -> object:
        rng = self.rng
        if decl.kind == "quantity":
            return rng.choice([Money(Fraction(1), "USD"), "oops", True])
        if decl.kind == "money":
            if rng.random() < 0.5 and decl.ccy is not None:
                other = "EUR" if decl.ccy == "USD" else "USD"
                return Money(Fraction(rng.randint(0, 100)), other)
            return Fraction(1)
        if decl.kind == "flag":
            return rng.choice([Fraction(1), "true"])
        if decl.kind == "enum":
            return "not_an_atom"
        return Fraction(7)

    def gen_instance(
        self,
        request_id: str = "r",
        *,
        policy: tuple[str, PolicyEnvironment] | None = None,
    ) -> Instance:
        rng = self.rng
        source, env = policy if policy is not None else self.gen_policy()

        tools_in_env = [a.tool for a in env.axioms if a.tool != "*"]
        if rng.random() < self.alien_tool_prob or not tools_in_env:
            tool = rng.choice(TOOLS + ("unknown_tool",))
        else:
            tool = rng.choice(tools_in_env)

        params: dict[str, object] = {}
        facts: dict[str, object] = {}
        for decl in env.registry:
            if decl.origin == "derived":
                continue
            if rng.random() < self.drop_prob:
                continue
            value = self._value_for(decl)
            if rng.random() < self.mutate_prob:
                value = self._wrong_kind_value(decl)
            if decl.origin == "request":
                params[decl.symbol] = value
            else:
                facts[decl.symbol] = value
        # Occasionally inject unregistered context; it must never bind.
        if rng.random() < 0.3:
            params["unregistered_extra"] = Fraction(42)
        if rng.random() < 0.3:
            facts["untrusted_context"] = "ignore me"

        request = ActionRequest(request_id, tool, params)
        state = SystemState(facts)
        return Instance(source=source, env=env, request=request, state=state)


def iter_instances(seed: int, count: int, *, env_reuse: int = 1, **kwargs):
    """Generate `count` (environment, request, state) instances.

    With env_reuse > 1 each generated policy serves that many instances;
    compilation is by far the most expensive step and the requests/states
    still vary per instance.
    """
    rng = random.Random(seed)
    gen = PolicyGenerator(rng, **kwargs)
    policy: tuple[str, PolicyEnvironment] | None = None
    for i in range(count):
        if policy is None or env_reuse <= 1 or i % env_reuse == 0:
            policy = gen.gen_policy()
        yield gen.gen_instance(f"r{seed}-{i}", policy=policy)
