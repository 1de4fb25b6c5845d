"""Known corrections to the source case tables, in machine-readable form.

The closed-form operations and inference tables implement the case
*derivations*; a few of the stated case lists they come from contain symbol
or scope errors that the derivations and the brute-force order oracle both
contradict.  Each record below documents one such correction.  The scope
correction in the quasi-kind join (rule 2.4, item 3) is also confirmed pair
by pair: `lingtruth.oracle.cross_check_ops` reports each pair where the
stated join differs from the oracle, as ``check --format json`` shows.
"""

from __future__ import annotations

from collections import namedtuple


class StatementNote(namedtuple("StatementNote", "id table subject stated used detail")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


STATEMENT_NOTES: tuple[StatementNote, ...] = (
    StatementNote(
        id="3.2-mt-vl1",
        table="3.2",
        subject="MT case 2j >= n+i",
        stated="v_l1",
        used="v_j1",
        detail=(
            "no symbol l is bound in this table; the case derivation for "
            "i <= j with 2j >= n+i yields v_j1"
        ),
    ),
    StatementNote(
        id="2.4-item3-scope",
        table="2.4",
        subject="join of v_kT and v_lF with n <= k+l",
        stated="v_(n-(i-1))T whenever k = n-i",
        used="v_(n-(i-1))T only when l = i; v_kT when l > i",
        detail=(
            "for l > i the value v_lF lies below v_(n-i)T through the cross "
            "link at grade l, so the least upper bound is v_kT itself; the "
            "stated value is an upper bound but not a minimal one. Confirmed "
            "pair by pair against the brute-force order oracle."
        ),
    ),
    StatementNote(
        id="2.4-item5-6-symbols",
        table="2.4",
        subject="same-polarity meets",
        stated="v_kT ^ v_lT = v_iT and v_kF ^ v_lF = v_jF",
        used="v_kT and v_lF (chain meets under k <= l)",
        detail="the symbols i and j are not bound by the quantifier over k <= l",
    ),
    StatementNote(
        id="4.3-mt-conditions",
        table="4.3",
        subject="MT case list",
        stated="nine overlapping cases, one conditioned on (k+l) <= n",
        used="decision tree on k+l vs n, l vs n-i, and 2l+k vs 2n",
        detail=(
            "the stated conditions overlap and one contradicts its own "
            "region; the case derivation (2a-2e) disambiguates and the "
            "exhaustive direct-vs-closed comparison certifies the tree"
        ),
    ),
    StatementNote(
        id="4.4-mt-keys",
        table="4.4",
        subject="MT case list",
        stated="cases keyed on l = n-i",
        used="cases keyed on k+l = n-i",
        detail=(
            "the special behavior comes from the derived implication value "
            "v_(k+l)T hitting the missing cross link, so the key is k+l, "
            "as in the case derivation"
        ),
    ),
    StatementNote(
        id="4.4-mp-scope",
        table="4.4",
        subject="MP case v_(n-k+1)T",
        stated="condition written with (k+l) != (n-i)",
        used="(k+l) = (n-i), per case 1c of the derivation",
        detail="as written the case duplicates the generic branch's region",
    ),
    StatementNote(
        id="ex3.1-label",
        table="example 3.1",
        subject="intermediate value e(P -> Q)",
        stated="Somewhat True",
        used="v_3T (grade 3)",
        detail=(
            "with grades 3 and 2 the implication rule gives grade "
            "min(n, n-3+2) = 3, and the example's final values match grade 3; "
            "hedge wording in the worked examples is not consistent with the "
            "hedge list, so all checks compare indices"
        ),
    ),
)

