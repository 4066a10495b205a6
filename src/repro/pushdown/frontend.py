"""Restricted-Python frontend: compile a predicate function to bytecode.

Offload filters can be authored as tiny Python functions over a record
accessor instead of raw bytecode::

    def hot_rows(rec):
        return rec.u32(16) > 1000 and rec.match(rb"needle-\\d{8}")

``compile_predicate(hot_rows)`` compiles the body to a ``filter``
:class:`~repro.pushdown.isa.Program`.  The grammar is deliberately a
straight-line expression language — comparisons, arithmetic, boolean
logic, ``rec.u8/u16/u32/u64(offset)`` field loads, and
``rec.match(pattern)`` — so everything it emits is verifiable.

The shared-state rule is enforced *at the source level* here, before
bytecode even exists: the function may read nothing but its record
parameter.  Closures, globals, and attribute chains rooted anywhere
else are exactly the DDS101/DDS102 accesses :func:`repro.analysis.
shared_state.external_state_roots` models, and compiling them is
refused with verifier rule PDV302 (DESIGN.md §14 lists the rules).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Callable, List

from .isa import WIDTHS, Instruction, Op, Program
from .verifier import Verdict

__all__ = ["SourceRejected", "compile_predicate"]

#: ``rec.<accessor>(offset)`` -> load width in bytes.
_FIELD_ACCESSORS = {"u8": 1, "u16": 2, "u32": 4, "u64": 8}


class SourceRejected(Exception):
    """The source cannot be compiled; carries the typed verdict."""

    def __init__(self, verdict: Verdict) -> None:
        super().__init__(verdict.explain())
        self.verdict = verdict


def _reject(rule: str, detail: str, line: int) -> SourceRejected:
    return SourceRejected(Verdict(False, rule, detail, pc=None))


class _Compiler:
    """Emit stack code for one expression tree."""

    def __init__(self, record_param: str) -> None:
        self.record_param = record_param
        self.code: List[Instruction] = []
        self.patterns: List[bytes] = []

    def emit(self, op: Op, a: int = 0, b: int = 0) -> None:
        self.code.append(Instruction(op, a, b))

    # -- expression dispatch -------------------------------------------
    def expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Constant):
            self.constant(node)
        elif isinstance(node, ast.Call):
            self.call(node)
        elif isinstance(node, ast.BinOp):
            self.binop(node)
        elif isinstance(node, ast.Compare):
            self.compare(node)
        elif isinstance(node, ast.BoolOp):
            self.boolop(node)
        elif isinstance(node, ast.UnaryOp):
            self.unaryop(node)
        else:
            raise _reject(
                "PDV401",
                f"unsupported syntax: {type(node).__name__}",
                node.lineno,
            )

    def constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, bool):
            self.emit(Op.PUSH, int(node.value))
        elif isinstance(node.value, int):
            self.emit(Op.PUSH, node.value)
        else:
            raise _reject(
                "PDV401",
                f"only int constants, got {type(node.value).__name__}",
                node.lineno,
            )

    def call(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == self.record_param
        ):
            raise _reject(
                "PDV401",
                "only record-accessor calls are compilable",
                node.lineno,
            )
        name = func.attr
        if name in _FIELD_ACCESSORS:
            width = _FIELD_ACCESSORS[name]
            if width not in WIDTHS:  # pragma: no cover - table is fixed
                raise _reject("PDV401", f"bad width {width}", node.lineno)
            if len(node.args) != 1 or not (
                isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, int)
                and not isinstance(node.args[0].value, bool)
            ):
                raise _reject(
                    "PDV401",
                    f"rec.{name}(offset) needs one constant int offset",
                    node.lineno,
                )
            self.emit(Op.LOAD, node.args[0].value, width)
        elif name == "match":
            if len(node.args) != 1 or not (
                isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, bytes)
            ):
                raise _reject(
                    "PDV401",
                    "rec.match(pattern) needs one constant bytes "
                    "pattern",
                    node.lineno,
                )
            self.patterns.append(node.args[0].value)
            self.emit(Op.MATCH, len(self.patterns) - 1)
        else:
            raise _reject(
                "PDV401",
                f"unknown record accessor rec.{name}",
                node.lineno,
            )

    def binop(self, node: ast.BinOp) -> None:
        ops = {ast.Add: Op.ADD, ast.Sub: Op.SUB, ast.Mult: Op.MUL}
        op = ops.get(type(node.op))
        if op is None:
            raise _reject(
                "PDV401",
                f"unsupported operator {type(node.op).__name__}",
                node.lineno,
            )
        self.expr(node.left)
        self.expr(node.right)
        self.emit(op)

    def compare(self, node: ast.Compare) -> None:
        if len(node.ops) != 1:
            raise _reject(
                "PDV401", "chained comparisons are not compilable",
                node.lineno,
            )
        self.expr(node.left)
        self.expr(node.comparators[0])
        op = node.ops[0]
        if isinstance(op, ast.Eq):
            self.emit(Op.EQ)
        elif isinstance(op, ast.NotEq):
            self.emit(Op.EQ)
            self.emit(Op.NOT)
        elif isinstance(op, ast.Lt):
            self.emit(Op.LT)
        elif isinstance(op, ast.Gt):
            self.emit(Op.GT)
        elif isinstance(op, ast.LtE):  # a <= b  ==  a < b + 1
            self.emit(Op.PUSH, 1)
            self.emit(Op.ADD)
            self.emit(Op.LT)
        elif isinstance(op, ast.GtE):  # a >= b  ==  a + 1 > b
            self.emit(Op.SWAP)
            self.emit(Op.PUSH, 1)
            self.emit(Op.ADD)
            self.emit(Op.SWAP)
            self.emit(Op.GT)
        else:
            raise _reject(
                "PDV401",
                f"unsupported comparison {type(op).__name__}",
                node.lineno,
            )

    def boolop(self, node: ast.BoolOp) -> None:
        fold = Op.AND if isinstance(node.op, ast.And) else Op.OR
        self.expr(node.values[0])
        for value in node.values[1:]:
            self.expr(value)
            self.emit(fold)

    def unaryop(self, node: ast.UnaryOp) -> None:
        if isinstance(node.op, ast.Not):
            self.expr(node.operand)
            self.emit(Op.NOT)
        elif isinstance(node.op, ast.USub) and isinstance(
            node.operand, ast.Constant
        ) and isinstance(node.operand.value, int):
            self.emit(Op.PUSH, -node.operand.value)
        else:
            raise _reject(
                "PDV401",
                f"unsupported unary {type(node.op).__name__}",
                node.lineno,
            )


def compile_predicate(fn: Callable[..., object]) -> Program:
    """Compile ``def pred(rec): return <expr>`` to a filter program.

    Raises :class:`SourceRejected` with a typed verdict when the source
    touches shared state (PDV302) or uses syntax outside the grammar
    (PDV401).  The result still goes through :func:`~repro.pushdown.
    verifier.verify` like any other program — the frontend narrows the
    language, it does not replace the proof.
    """
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as exc:
        raise SourceRejected(
            Verdict(False, "PDV401", f"source unavailable: {exc}")
        ) from None
    tree = ast.parse(source)
    if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
        raise _reject("PDV401", "expected a plain function", 1)
    fndef = tree.body[0]
    args = fndef.args
    if (
        len(args.args) + len(args.posonlyargs) != 1
        or args.vararg or args.kwarg or args.kwonlyargs
    ):
        raise _reject(
            "PDV401",
            "offload predicates take exactly one record parameter",
            fndef.lineno,
        )
    params = args.posonlyargs + args.args
    record_param = params[0].arg
    body = [
        stmt for stmt in fndef.body
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        )  # docstring
    ]
    if len(body) != 1 or not isinstance(body[0], ast.Return) or (
        body[0].value is None
    ):
        raise _reject(
            "PDV401",
            "offload predicates are a single return expression",
            fndef.lineno,
        )
    returned = body[0].value

    # Imported here: repro.analysis is the whole linter, and every
    # process that scans a table imports this package.
    from ..analysis.shared_state import external_state_roots

    touched = external_state_roots(returned, frozenset({record_param}))
    if touched:
        what, line = touched[0]
        raise SourceRejected(
            Verdict(
                False,
                "PDV302",
                f"offload source reads shared state '{what}' (line "
                f"{line}); only the record parameter "
                f"'{record_param}' is owned (DDS101/DDS102 model)",
            )
        )

    compiler = _Compiler(record_param)
    compiler.expr(returned)
    compiler.emit(Op.RET)
    return Program(
        kind="filter",
        code=tuple(compiler.code),
        patterns=tuple(compiler.patterns),
    )
