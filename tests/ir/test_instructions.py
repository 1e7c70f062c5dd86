"""Instruction behaviours: uses, operand rewriting, retargeting, copying."""

import pytest

from repro.ir import (
    Alloca,
    BinOp,
    Branch,
    Call,
    ICall,
    Imm,
    Jump,
    Load,
    Mov,
    Probe,
    Reg,
    Ret,
    Store,
    UnOp,
    FuncRef,
)


def upper_regs(op):
    if isinstance(op, Reg):
        return Reg(op.name.upper())
    return op


class TestUsesAndMapping:
    def test_mov(self):
        instr = Mov(Reg("d"), Reg("s"))
        assert instr.uses() == [Reg("s")]
        instr.map_operands(upper_regs)
        assert instr.src == Reg("S")
        assert instr.dest == Reg("d")  # dest is not a use

    def test_binop(self):
        instr = BinOp(Reg("d"), "add", Reg("a"), Imm(3))
        assert instr.uses() == [Reg("a"), Imm(3)]
        instr.map_operands(upper_regs)
        assert instr.lhs == Reg("A")
        assert instr.rhs == Imm(3)

    def test_unop(self):
        instr = UnOp(Reg("d"), "neg", Reg("a"))
        assert instr.uses() == [Reg("a")]

    def test_load_store(self):
        load = Load(Reg("d"), Reg("p"))
        store = Store(Reg("p"), Reg("v"))
        assert load.uses() == [Reg("p")]
        assert store.uses() == [Reg("p"), Reg("v")]
        assert store.dest is None

    def test_call_uses_args_only(self):
        call = Call(Reg("d"), "f", [Reg("a"), Imm(1)], site_id=7)
        assert call.uses() == [Reg("a"), Imm(1)]
        call.map_operands(upper_regs)
        assert call.args == [Reg("A"), Imm(1)]
        assert call.site_id == 7

    def test_icall_uses_func_and_args(self):
        icall = ICall(None, Reg("f"), [Reg("a")], site_id=3)
        assert icall.uses() == [Reg("f"), Reg("a")]
        icall.map_operands(upper_regs)
        assert icall.func == Reg("F")

    def test_branch_and_ret(self):
        br = Branch(Reg("c"), "a", "b")
        assert br.uses() == [Reg("c")]
        ret = Ret(Reg("v"))
        assert ret.uses() == [Reg("v")]
        assert Ret(None).uses() == []


class TestControlFlow:
    def test_targets(self):
        assert Jump("x").targets() == ["x"]
        assert Branch(Imm(1), "a", "b").targets() == ["a", "b"]
        assert Ret(None).targets() == []
        assert Mov(Reg("d"), Imm(0)).targets() == []

    def test_retarget(self):
        br = Branch(Imm(1), "a", "b")
        br.retarget({"a": "z"})
        assert br.targets() == ["z", "b"]
        jmp = Jump("a")
        jmp.retarget({"a": "q", "b": "r"})
        assert jmp.target == "q"

    def test_terminator_flags(self):
        assert Jump("x").is_terminator
        assert Branch(Imm(1), "a", "b").is_terminator
        assert Ret(None).is_terminator
        assert not Call(None, "f", [], 0).is_terminator
        assert not Probe(0).is_terminator


class TestMisc:
    def test_alloca_dynamic_flag(self):
        assert not Alloca(Reg("d"), Imm(8)).is_dynamic
        assert Alloca(Reg("d"), Reg("n")).is_dynamic

    def test_icall_to_direct(self):
        icall = ICall(Reg("d"), FuncRef("f"), [Imm(1)], site_id=9)
        call = icall.to_direct()
        assert isinstance(call, Call)
        assert call.callee == "f"
        assert call.site_id == 9
        assert call.origin == 9

    def test_icall_to_direct_requires_funcref(self):
        with pytest.raises(ValueError):
            ICall(None, Reg("f"), [], 0).to_direct()

    def test_origin_defaults_to_site(self):
        call = Call(None, "f", [], site_id=4)
        assert call.origin == 4
        derived = Call(None, "f", [], site_id=9, origin=4)
        assert derived.origin == 4

    def test_copy_is_deep(self):
        call = Call(Reg("d"), "f", [Reg("a")], 1)
        dup = call.copy()
        dup.args[0] = Imm(9)
        dup.site_id = 99
        assert call.args == [Reg("a")]
        assert call.site_id == 1

    def test_str_forms(self):
        assert str(Mov(Reg("d"), Imm(1))) == "%d = mov 1"
        assert str(Store(Reg("p"), Imm(2))) == "store [%p], 2"
        assert str(Jump("L")) == "jmp L"
        assert "call @f(%a) #2" in str(Call(None, "f", [Reg("a")], 2))
        assert str(Probe(5)) == "probe 5"


SAMPLES = [
    Mov(Reg("d"), Reg("s")),
    UnOp(Reg("d"), "neg", Reg("a")),
    BinOp(Reg("d"), "add", Reg("a"), Imm(3)),
    Load(Reg("d"), Reg("p")),
    Store(Reg("p"), Reg("v")),
    Alloca(Reg("d"), Reg("n")),
    Call(Reg("d"), "f", [Reg("a"), Imm(1)], site_id=7, origin=2),
    ICall(None, Reg("f"), [Reg("a")], site_id=3),
    Branch(Reg("c"), "a", "b"),
    Jump("a"),
    Ret(Reg("v")),
    Ret(None),
    Probe(5),
]


class TestReplacement:
    """``with_operands``/``with_targets`` never edit the receiver: they
    return it unchanged, or a new instruction equal to what editing a
    copy in place would give."""

    @pytest.mark.parametrize("instr", SAMPLES, ids=str)
    def test_with_operands_matches_edited_copy(self, instr):
        before = str(instr)
        expected = instr.copy()
        expected.map_operands(upper_regs)
        replaced = instr.with_operands(upper_regs)
        assert str(instr) == before
        assert str(replaced) == str(expected)
        assert (replaced is instr) == (str(expected) == before)
        for slot in ("site_id", "origin"):
            assert getattr(replaced, slot, None) == getattr(instr, slot, None)

    @pytest.mark.parametrize("instr", SAMPLES, ids=str)
    def test_with_operands_identity_keeps_instr(self, instr):
        assert instr.with_operands(lambda op: op) is instr

    @pytest.mark.parametrize("instr", SAMPLES, ids=str)
    def test_with_targets_matches_edited_copy(self, instr):
        mapping = {"a": "z"}
        before = str(instr)
        expected = instr.copy()
        expected.retarget(mapping)
        replaced = instr.with_targets(mapping)
        assert str(instr) == before
        assert str(replaced) == str(expected)
        assert (replaced is instr) == (str(expected) == before)
        assert instr.with_targets({"q": "r"}) is instr

    def test_with_callee_keeps_site_and_origin(self):
        call = Call(Reg("d"), "f", [Reg("a"), Imm(1)], site_id=7, origin=2)
        moved = call.with_callee("f.c0", [Reg("a")])
        assert (moved.dest, moved.callee, moved.args) == (Reg("d"), "f.c0", [Reg("a")])
        assert (moved.site_id, moved.origin) == (7, 2)
        assert (call.callee, call.args) == ("f", [Reg("a"), Imm(1)])
