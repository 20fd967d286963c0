//! Named variable spaces.
//!
//! A [`Space`] is an ordered list of named columns over which affine
//! expressions are written. Columns are either *loop variables* (the `x_k`,
//! tile indices `t_k`, or local indices `i_k` of the paper) or *input
//! parameters* (such as `N`). The distinction matters for elimination: loop
//! bounds are synthesised for variables, while parameters survive into the
//! generated program and are bound at run time.

use crate::error::PolyError;
use std::fmt;
use std::sync::Arc;

/// The role of a column in a [`Space`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// A loop variable: eliminated during projection, scanned by loop nests.
    Var,
    /// An input parameter: bound at run time (e.g. the horizon `N`).
    Param,
}

/// An ordered set of named columns with roles.
///
/// The columns are shared: a clone (every system Fourier–Motzkin derives,
/// every loop nest and tiling copy) shares them with its source, and
/// [`Space::add`] copies them first only while they are shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Space {
    columns: Arc<Columns>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Columns {
    names: Vec<String>,
    kinds: Vec<VarKind>,
}

impl Space {
    /// An empty space.
    pub fn new() -> Space {
        Space {
            columns: Arc::default(),
        }
    }

    /// Build a space from variable names then parameter names.
    ///
    /// Column order is: all variables (in the given order) followed by all
    /// parameters.
    pub fn from_names<S: AsRef<str>>(vars: &[S], params: &[S]) -> Result<Space, PolyError> {
        let mut space = Space::new();
        for v in vars {
            space.add(v.as_ref(), VarKind::Var)?;
        }
        for p in params {
            space.add(p.as_ref(), VarKind::Param)?;
        }
        Ok(space)
    }

    /// Append a named column. Fails on duplicate names.
    pub fn add(&mut self, name: &str, kind: VarKind) -> Result<usize, PolyError> {
        if self.contains(name) {
            return Err(PolyError::DuplicateName(name.to_string()));
        }
        let columns = Arc::make_mut(&mut self.columns);
        columns.names.push(name.to_string());
        columns.kinds.push(kind);
        Ok(columns.names.len() - 1)
    }

    /// Total number of columns (variables + parameters).
    pub fn dim(&self) -> usize {
        self.columns.names.len()
    }

    /// Column index of `name`.
    pub fn index(&self, name: &str) -> Result<usize, PolyError> {
        self.names()
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| PolyError::UnknownName(name.to_string()))
    }

    /// Name of column `idx`.
    pub fn name(&self, idx: usize) -> &str {
        &self.columns.names[idx]
    }

    /// Role of column `idx`.
    pub fn kind(&self, idx: usize) -> VarKind {
        self.columns.kinds[idx]
    }

    /// Indices of all loop variables, in column order.
    pub fn var_indices(&self) -> Vec<usize> {
        (0..self.dim())
            .filter(|&i| self.kind(i) == VarKind::Var)
            .collect()
    }

    /// Indices of all parameters, in column order.
    pub fn param_indices(&self) -> Vec<usize> {
        (0..self.dim())
            .filter(|&i| self.kind(i) == VarKind::Param)
            .collect()
    }

    /// All column names, in order.
    pub fn names(&self) -> &[String] {
        &self.columns.names
    }

    /// True when `name` exists in this space.
    pub fn contains(&self, name: &str) -> bool {
        self.names().iter().any(|n| n == name)
    }
}

impl Default for Space {
    fn default() -> Space {
        Space::new()
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, name) in self.names().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match self.kind(i) {
                VarKind::Var => write!(f, "{name}")?,
                VarKind::Param => write!(f, "{name}!")?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_names_orders_vars_then_params() {
        let s = Space::from_names(&["s1", "f1"], &["N"]).unwrap();
        assert_eq!(s.dim(), 3);
        assert_eq!(s.index("s1").unwrap(), 0);
        assert_eq!(s.index("f1").unwrap(), 1);
        assert_eq!(s.index("N").unwrap(), 2);
        assert_eq!(s.kind(0), VarKind::Var);
        assert_eq!(s.kind(2), VarKind::Param);
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(Space::from_names(&["x", "x"], &[]).is_err());
        assert!(Space::from_names(&["x"], &["x"]).is_err());
        let mut s = Space::new();
        s.add("x", VarKind::Var).unwrap();
        assert_eq!(
            s.add("x", VarKind::Param),
            Err(PolyError::DuplicateName("x".into()))
        );
    }

    #[test]
    fn unknown_name_errors() {
        let s = Space::from_names(&["x"], &["N"]).unwrap();
        assert_eq!(s.index("y"), Err(PolyError::UnknownName("y".into())));
    }

    #[test]
    fn var_and_param_indices() {
        let mut s = Space::new();
        s.add("x", VarKind::Var).unwrap();
        s.add("N", VarKind::Param).unwrap();
        s.add("y", VarKind::Var).unwrap();
        assert_eq!(s.var_indices(), vec![0, 2]);
        assert_eq!(s.param_indices(), vec![1]);
    }

    #[test]
    fn clones_share_columns_until_one_adds() {
        let s = Space::from_names(&["x"], &["N"]).unwrap();
        let mut t = s.clone();
        assert!(Arc::ptr_eq(&s.columns, &t.columns));
        t.add("y", VarKind::Var).unwrap();
        assert!(!Arc::ptr_eq(&s.columns, &t.columns));
        assert_eq!(
            (s.to_string(), t.to_string()),
            ("[x, N!]".into(), "[x, N!, y]".into())
        );
    }

    #[test]
    fn display_marks_params() {
        let s = Space::from_names(&["x"], &["N"]).unwrap();
        assert_eq!(s.to_string(), "[x, N!]");
    }
}
