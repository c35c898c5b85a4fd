//! Error types of the `uops-core` crate.

use std::error::Error;
use std::fmt;

use uops_asm::AsmError;
use uops_uarch::{MicroArch, PortSet};

/// Errors produced by the characterization algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A required instruction variant is missing from the catalog.
    MissingInstruction {
        /// Mnemonic of the missing instruction.
        mnemonic: String,
        /// Variant string of the missing instruction.
        variant: String,
    },
    /// No blocking instruction is available for a port combination.
    NoBlockingInstruction {
        /// The port combination that is not covered.
        ports: PortSet,
    },
    /// No chain instruction could be constructed for a latency measurement.
    NoChainInstruction {
        /// Description of the operand pair.
        pair: String,
    },
    /// The instruction cannot be characterized by this tool (system
    /// instruction, REP prefix, unsupported extension, ...).
    Unsupported {
        /// The instruction's full name.
        instruction: String,
        /// Why it is unsupported.
        reason: String,
    },
    /// The backend passed to an engine measures another microarchitecture,
    /// or with another configuration than the one the engine's one-time
    /// setup was measured on.
    BackendMismatch {
        /// The engine's microarchitecture.
        engine: MicroArch,
        /// How the backend differs.
        reason: String,
    },
    /// An error from the assembler layer.
    Asm(AsmError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::MissingInstruction { mnemonic, variant } => {
                write!(f, "missing instruction variant in catalog: {mnemonic} ({variant})")
            }
            CoreError::NoBlockingInstruction { ports } => {
                write!(f, "no blocking instruction for port combination {ports}")
            }
            CoreError::NoChainInstruction { pair } => {
                write!(f, "no chain instruction for operand pair {pair}")
            }
            CoreError::Unsupported { instruction, reason } => {
                write!(f, "{instruction} cannot be characterized: {reason}")
            }
            CoreError::BackendMismatch { engine, reason } => {
                write!(f, "backend does not match the {engine} engine: {reason}")
            }
            CoreError::Asm(e) => write!(f, "assembler error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Asm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AsmError> for CoreError {
    fn from(e: AsmError) -> CoreError {
        CoreError::Asm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::MissingInstruction { mnemonic: "FOO".into(), variant: "R64".into() };
        assert!(e.to_string().contains("FOO"));
        let e = CoreError::NoBlockingInstruction { ports: PortSet::of(&[0, 5]) };
        assert!(e.to_string().contains("p05"));
        let e = CoreError::Unsupported { instruction: "HLT".into(), reason: "system".into() };
        assert!(e.to_string().contains("HLT"));
        let e = CoreError::BackendMismatch {
            engine: MicroArch::Skylake,
            reason: "it measures Nehalem".into(),
        };
        assert!(e.to_string().contains("Skylake") && e.to_string().contains("Nehalem"));
        let asm = CoreError::Asm(AsmError::OutOfRegisters { class: "XMM".into() });
        assert!(asm.source().is_some());
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<CoreError>();
    }
}
