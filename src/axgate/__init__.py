"""axgate: a deterministic compliance gateway for agentic tool calls.

Policies written in a small typed DSL compile into an immutable, versioned
environment; a verification kernel decides every intercepted tool call by
exact evaluation (Proven forwards, Refuted blocks) with a complete proof
trace; decisions land in a hash-chained audit log and refusals come with
plain-language notices.
"""

from .audit import AuditRecord, AuditWriter, verify_chain
from .bench import LatencyReport, bench
from .compiler import (
    Axiom,
    CompileResult,
    PolicyEnvironment,
    compile_file,
    compile_source,
)
from .gateway import Gateway, GatewayConfig, load_config, serve
from .notices import AdverseActionNotice, render_notice
from .scenario import Scenario, load_scenario, replay
from .kernel import (
    PROVEN,
    REFUTED,
    ActionRequest,
    ProofTrace,
    RefusalCause,
    SystemState,
    VerificationResult,
    decide,
    eval_condition,
    verify,
)
from .oracle import oracle_verify
from .values import Money

__all__ = [
    "ActionRequest",
    "AdverseActionNotice",
    "AuditRecord",
    "AuditWriter",
    "Axiom",
    "CompileResult",
    "Gateway",
    "GatewayConfig",
    "LatencyReport",
    "Money",
    "PROVEN",
    "PolicyEnvironment",
    "ProofTrace",
    "REFUTED",
    "RefusalCause",
    "Scenario",
    "SystemState",
    "VerificationResult",
    "bench",
    "compile_file",
    "compile_source",
    "decide",
    "eval_condition",
    "load_config",
    "load_scenario",
    "oracle_verify",
    "render_notice",
    "replay",
    "serve",
    "verify",
    "verify_chain",
]

__version__ = "0.1.0"
