//! # uops-isa
//!
//! A machine-readable model of the x86-64 instruction set, as needed by the
//! microbenchmark-generation algorithms of
//! [uops.info](https://uops.info) (Abel & Reineke, ASPLOS 2019).
//!
//! The crate provides:
//!
//! * [`Register`], [`RegClass`], [`Width`]: architectural registers and the
//!   widths at which they can be accessed.
//! * [`FlagSet`]: the x86 status flags, used to model implicit flag
//!   dependencies.
//! * [`OperandDesc`] / [`OperandKind`]: operand descriptions including
//!   read/write sets and implicit operands.
//! * [`InstructionDesc`]: one instruction *variant* (mnemonic + operand form).
//! * [`Catalog`]: the full set of instruction variants, with
//!   [`Catalog::intel_core`] generating a catalog of a few thousand variants
//!   covering the base instruction set, MMX, SSE–SSE4.2, AES-NI, AVX/AVX2,
//!   FMA, and the BMI/ADX extensions.
//! * [`xml`]: a machine-readable XML export of the catalog, playing the role
//!   of the XED-derived XML file of the paper (§6.1).
//!
//! ## Example
//!
//! ```rust
//! use uops_isa::Catalog;
//!
//! let catalog = Catalog::intel_core();
//! let add = catalog.find_variant("ADD", "R64, R64").expect("ADD exists");
//! assert!(add.writes_flags());
//! assert_eq!(add.explicit_operand_count(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod descriptor;
pub mod extension;
pub mod flags;
pub mod gen;
pub mod operand;
pub mod register;
pub mod xml;

pub use catalog::Catalog;
pub use descriptor::{Attributes, DescBuilder, InstructionDesc};
pub use extension::{Category, Extension};
pub use flags::{Flag, FlagSet};
pub use operand::{OperandDesc, OperandKind};
pub use register::{gpr, RegClass, RegFile, Register, Width};
