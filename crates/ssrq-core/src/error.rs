use ssrq_graph::GraphError;
use ssrq_spatial::SpatialError;
use std::fmt;

/// Errors raised by the SSRQ core.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A query or engine parameter is outside its valid range.
    InvalidParameter(String),
    /// A user id that does not exist in the dataset was referenced.
    UnknownUser(u32),
    /// A query named an algorithm that is not registered with the engine's
    /// strategy registry.
    UnknownAlgorithm(String),
    /// A strategy needs an auxiliary index that the engine was not
    /// configured to provide — declare it with
    /// [`EngineBuilder::with_ch`](crate::EngineBuilder::with_ch) /
    /// [`EngineBuilder::cache_social_neighbors`](crate::EngineBuilder::cache_social_neighbors)
    /// to have it built on first use.
    MissingIndex(String),
    /// The dataset is malformed (e.g. location list shorter than the graph).
    InvalidDataset(String),
    /// An error bubbled up from the graph substrate.
    Graph(GraphError),
    /// An error bubbled up from the spatial substrate.
    Spatial(SpatialError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            CoreError::UnknownUser(id) => write!(f, "unknown user {id}"),
            CoreError::UnknownAlgorithm(name) => {
                write!(f, "no algorithm strategy registered under {name:?}")
            }
            CoreError::MissingIndex(msg) => write!(f, "missing index: {msg}"),
            CoreError::InvalidDataset(msg) => write!(f, "invalid dataset: {msg}"),
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Spatial(e) => write!(f, "spatial error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            CoreError::Spatial(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<SpatialError> for CoreError {
    fn from(e: SpatialError) -> Self {
        CoreError::Spatial(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: CoreError = GraphError::UnknownNode(3).into();
        assert!(e.to_string().contains("graph error"));
        let e: CoreError = SpatialError::UnknownItem(4).into();
        assert!(e.to_string().contains("spatial error"));
        assert!(CoreError::UnknownUser(9).to_string().contains('9'));
        assert!(CoreError::InvalidParameter("alpha".into())
            .to_string()
            .contains("alpha"));
        assert!(CoreError::InvalidDataset("short".into())
            .to_string()
            .contains("short"));
    }

    #[test]
    fn error_sources_are_exposed() {
        use std::error::Error;
        let e: CoreError = GraphError::UnknownNode(3).into();
        assert!(e.source().is_some());
        assert!(CoreError::UnknownUser(1).source().is_none());
    }
}
