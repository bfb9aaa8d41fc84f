"""The approximate deductive closure, materialized and queried.

Builds the worked two-protein example and prints its per-variant closure:
which existential and conjunction axioms become provable even though only six
axioms were asserted.
"""

from elkbc import GCI1, GCI2, classify, compute_closure
from elkbc.core import format_axiom
from elkbc.losses import LOSS_VARIANTS
from elkbc.toy import golden_theory

theory = golden_theory()
names = theory.signature.concepts
print("asserted axioms:")
for ax in theory.axioms:
    print(" ", format_axiom(theory.signature, ax))

index, hierarchy, _ = classify(theory)
dc = compute_closure(theory, index, hierarchy)

sizes = {tag: sum(1 for _ in dc.iter_variant(tag)) for tag in LOSS_VARIANTS}
print("\nclosure sizes per variant:", sizes)

p = names.id_of("{P}")
print("\nprovable existential superclasses of {P}:")
for ax in dc.iter_variant("GCI2"):
    if ax.sub == p:
        print("  {P} [= Ehas_function." + names.name_of(ax.filler))

print("\nprovable superclasses of the conjunction {P} n {GO1}:")
for e in sorted(dc.entailed_fillers(GCI1(p, names.id_of("{GO1}"), p))):
    print("  " + names.name_of(e))

print("\nspot entailment queries:")
q = names.id_of("{Q}")
b = names.id_of("B")
for ax in (GCI1(p, names.id_of("{GO2}"), b), GCI2(p, 0, names.id_of("{GO2}"))):
    print(f"  {format_axiom(theory.signature, ax)!r}: {dc.entails(ax)}")

# oracle mode answers the same questions without materializing anything
oracle = compute_closure(theory, index, hierarchy, mode="oracle")
assert oracle.entails(GCI1(p, names.id_of("{GO2}"), b))
print("\noracle mode agrees without materializing any set")
