"""Fixture: every way to dodge pushdown admission (DDS501/DDS502)."""

from repro.pushdown import interp, verifier
from repro.pushdown.interp import interpret, interpret_pipeline
from repro.pushdown.verifier import VerifiedPipeline, verify


def runs_raw_program(program, record, geometry):
    return interpret(program, record, geometry, 4096)  # DDS501 line 9


def runs_raw_pipeline(pipeline, record, geometry):
    return interp.interpret_pipeline(  # DDS501 line 13
        pipeline, record, geometry, 4096
    )


def verifies_too_late(program, record, geometry):
    result = interpret(program, record, geometry, 4096)  # DDS501 line 19
    verify_program = verifier.verify_program
    verify_program(program, geometry)
    return result


def forges_token(pipeline, geometry):
    verdict, _token = verify(pipeline, geometry)
    return VerifiedPipeline(pipeline, geometry, verdict, None)  # DDS502 l27


def verifies_then_runs(pipeline, record, geometry):
    verdict, token = verify(pipeline, geometry)
    if token is None:
        return None
    return interpret_pipeline(  # clean: admission precedes execution
        token.pipeline, record, geometry, verdict.fuel
    )


def runs_raw_page(pipeline, page, geometry):
    return interp.interpret_page(  # DDS501 line 40
        pipeline, page, geometry, 4096, [0, 0, 0, 0]
    )
