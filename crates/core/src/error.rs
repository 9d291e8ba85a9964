use std::error::Error;
use std::fmt;

use morestress_fem::FemError;
use morestress_linalg::LinalgError;

/// Errors produced by the MORE-Stress algorithm.
#[derive(Debug)]
#[non_exhaustive]
pub enum RomError {
    /// The underlying FEM layer failed (assembly, materials, constraints).
    Fem(FemError),
    /// A linear algebra kernel failed (factorization, iterative solve).
    Linalg(LinalgError),
    /// The reduced-order model and the requested problem are inconsistent
    /// (e.g. TSV and dummy ROMs built with different grids).
    Mismatch(String),
    /// ROM (de)serialization failed.
    Io(std::io::Error),
    /// A serialized ROM file is malformed or of an unsupported version.
    Format(String),
    /// The memory a solve needs could not be reserved.
    OutOfMemory {
        /// The bytes the reservation asked for.
        bytes: usize,
    },
}

impl fmt::Display for RomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RomError::Fem(e) => write!(f, "FEM layer error: {e}"),
            RomError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            RomError::Mismatch(msg) => write!(f, "inconsistent ROM inputs: {msg}"),
            RomError::Io(e) => write!(f, "ROM i/o error: {e}"),
            RomError::Format(msg) => write!(f, "malformed ROM file: {msg}"),
            RomError::OutOfMemory { bytes } => {
                write!(
                    f,
                    "out of memory: cannot reserve {bytes} bytes for the solve"
                )
            }
        }
    }
}

impl Error for RomError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RomError::Fem(e) => Some(e),
            RomError::Linalg(e) => Some(e),
            RomError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FemError> for RomError {
    fn from(e: FemError) -> Self {
        RomError::Fem(e)
    }
}

impl From<LinalgError> for RomError {
    fn from(e: LinalgError) -> Self {
        RomError::Linalg(e)
    }
}

impl From<std::io::Error> for RomError {
    fn from(e: std::io::Error) -> Self {
        RomError::Io(e)
    }
}
