import pytest

from lingtruth.axioms import (
    Axiom,
    Classification,
    check_all_axioms,
    check_axiom,
    check_involution,
    check_lattice_laws,
    classify,
)
from lingtruth.errors import DomainError
from lingtruth.lattice import LinguisticValue, lia, qlia

T = LinguisticValue.true
F = LinguisticValue.false


class TestSingleAxioms:
    def test_plain_distributes_implication_over_join(self):
        assert check_axiom(lia(4), Axiom.I6).holds

    def test_quasi_breaks_i6_with_known_witness(self):
        result = check_axiom(qlia(4, 2), Axiom.I6, max_witnesses=None)
        assert not result.holds
        hits = [
            w
            for w in result.witnesses
            if (w.x, w.y, w.z) == (T(2), F(2), T(0))
        ]
        assert len(hits) == 1
        assert hits[0].lhs == T(1) and hits[0].rhs == T(2)

    def test_quasi_keeps_i2(self):
        assert check_axiom(qlia(4, 2), Axiom.I2).holds

    def test_quasi_keeps_first_five(self):
        config = qlia(4, 2)
        for axiom in (Axiom.I1, Axiom.I2, Axiom.I3, Axiom.I4, Axiom.I5):
            assert check_axiom(config, axiom).holds, axiom


class TestLatticeLaws:
    @pytest.mark.parametrize("config", [lia(4), qlia(4, 2), lia(1)])
    def test_all_laws_hold(self, config):
        for law in check_lattice_laws(config):
            assert law.holds, law.name

    def test_law_names(self):
        names = {law.name for law in check_lattice_laws(lia(1))}
        assert names == {
            "join-idempotent",
            "meet-idempotent",
            "join-commutative",
            "meet-commutative",
            "join-associative",
            "meet-associative",
            "join-absorption",
            "meet-absorption",
        }


class TestInvolution:
    @pytest.mark.parametrize("config", [lia(4), qlia(4, 2), lia(0)])
    def test_order_reversing_involution(self, config):
        assert check_involution(config).holds


class TestClassification:
    def test_plain_is_lia(self):
        assert classify(check_all_axioms(lia(4))) is Classification.LIA

    def test_quasi_is_qlia(self):
        assert classify(check_all_axioms(qlia(4, 2))) is Classification.QLIA

    def test_smallest_quasi_config(self):
        # No triple with i+k+1 < n exists at n=2, yet I6/I7 still fail
        # through grade-saturated instances, so this classifies as QLIA.
        assert classify(check_all_axioms(qlia(2, 1))) is Classification.QLIA


class TestReporting:
    def test_witness_cap_preserves_total(self):
        result = check_axiom(qlia(4, 2), Axiom.I6, max_witnesses=3)
        assert len(result.witnesses) == 3
        assert result.total_violations == 48
        assert not result.holds

    @pytest.mark.parametrize("check", [
        lambda cap: check_axiom(qlia(4, 2), Axiom.I6, max_witnesses=cap),
        lambda cap: check_lattice_laws(lia(2), max_witnesses=cap),
        lambda cap: check_involution(lia(2), max_witnesses=cap),
    ], ids=["axiom", "laws", "involution"])
    def test_negative_cap_is_rejected(self, check):
        with pytest.raises(DomainError):
            check(-1)

    def test_uncapped(self):
        result = check_axiom(qlia(4, 2), Axiom.I6, max_witnesses=None)
        assert len(result.witnesses) == result.total_violations == 48

    def test_deterministic_reports(self):
        first = check_axiom(qlia(5, 2), Axiom.I7, max_witnesses=None)
        second = check_axiom(qlia(5, 2), Axiom.I7, max_witnesses=None)
        assert first.witnesses == second.witnesses

    def test_json_shape(self):
        d = check_axiom(qlia(4, 2), Axiom.I6, max_witnesses=1).to_dict()
        assert d["axiom"] == "I6"
        assert d["holds"] is False
        assert d["total_violations"] == 48
        assert set(d["witnesses"][0]) == {"x", "y", "z", "lhs", "rhs"}

    def test_pair_axiom_witness_omits_z(self):
        result = check_all_axioms(lia(1))
        d = check_involution(lia(1)).to_dict()
        assert d["holds"] is True
        assert all(result[axiom].holds for axiom in Axiom)
