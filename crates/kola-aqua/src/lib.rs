#![warn(missing_docs)]
//! # kola-aqua — the variable-based baseline algebra (AQUA)
//!
//! The paper's §2 argues "variables considered harmful" using AQUA \[25\] as
//! the case study. This crate is that baseline, built honestly: λ-based
//! anonymous functions ([`ast`]), an environment-carrying evaluator
//! ([`eval`](mod@eval)), the full variable machinery — free-variable analysis,
//! α-renaming, capture-avoiding substitution ([`vars`]) — and the paper's
//! transformations T1, T2 and code motion implemented as rules *with head
//! and body routines* ([`rules`]), instrumented so experiments can count
//! exactly how much machinery each rule consumes.
pub mod ast;
pub mod display;
pub mod eval;
pub mod parse;
pub mod rules;
pub mod vars;

pub use ast::{CmpOp, Expr, Lambda, Lambda2};
pub use eval::{eval, eval_closed, AquaError, Env};
pub use parse::{parse_aqua, AquaParseError};
pub use vars::{free_vars, substitute, Machinery};
