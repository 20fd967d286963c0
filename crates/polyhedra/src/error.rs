//! Error type shared by the polyhedral algorithms.

use std::fmt;

/// Errors produced by polyhedral construction and algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolyError {
    /// A variable or parameter name was not found in the [`crate::Space`].
    UnknownName(String),
    /// A name was declared twice in the same [`crate::Space`].
    DuplicateName(String),
    /// Two objects built over different spaces were combined.
    SpaceMismatch {
        /// Expected dimension (variables + parameters).
        expected: usize,
        /// Found dimension.
        found: usize,
    },
    /// Exact integer arithmetic overflowed `i128`.
    Overflow(&'static str),
    /// The requested operation needs a variable that has already been
    /// eliminated or is otherwise absent from the system.
    MissingVariable(String),
    /// The system is trivially infeasible (e.g. `-1 >= 0` appeared during
    /// elimination).
    Infeasible,
    /// A loop variable has no finite lower or upper bound in the system, so
    /// no loop can be generated for it.
    Unbounded(String),
    /// Input text could not be parsed.
    Parse(String),
}

impl fmt::Display for PolyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolyError::UnknownName(n) => write!(f, "unknown variable or parameter `{n}`"),
            PolyError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            PolyError::SpaceMismatch { expected, found } => {
                write!(
                    f,
                    "space mismatch: expected dimension {expected}, found {found}"
                )
            }
            PolyError::Overflow(op) => write!(f, "i128 overflow during {op}"),
            PolyError::MissingVariable(n) => write!(f, "variable `{n}` is not present"),
            PolyError::Infeasible => write!(f, "constraint system is infeasible"),
            PolyError::Unbounded(n) => write!(f, "variable `{n}` is unbounded"),
            PolyError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for PolyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            PolyError::UnknownName("x".into()).to_string(),
            "unknown variable or parameter `x`"
        );
        assert_eq!(
            PolyError::SpaceMismatch {
                expected: 3,
                found: 2
            }
            .to_string(),
            "space mismatch: expected dimension 3, found 2"
        );
        assert_eq!(
            PolyError::Infeasible.to_string(),
            "constraint system is infeasible"
        );
    }
}
