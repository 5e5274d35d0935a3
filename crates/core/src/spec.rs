//! Pipeline specifications: the DAG of modules an application declares.
//!
//! Mirrors the paper's Listing 1: each module has a `name`, an `include`
//! (which module code to instantiate), the `service`s it calls, an
//! `endpoint`, and its `next_module` edges.

use crate::error::PipelineError;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use videopipe_net::Endpoint;

/// One module entry in a pipeline spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleSpec {
    /// Unique module name within the pipeline.
    pub name: String,
    /// Module implementation key (the analogue of the config's
    /// `include("./PoseDetectorModule.js")`).
    pub include: String,
    /// Services this module calls.
    pub services: Vec<String>,
    /// How this module is reached (optional; the deployer assigns inproc
    /// endpoints when omitted).
    pub endpoint: Option<Endpoint>,
    /// Downstream modules (outgoing DAG edges).
    pub next_modules: Vec<String>,
}

impl ModuleSpec {
    /// Creates a spec with no services, endpoint or edges.
    pub fn new(name: impl Into<String>, include: impl Into<String>) -> Self {
        ModuleSpec {
            name: name.into(),
            include: include.into(),
            services: Vec::new(),
            endpoint: None,
            next_modules: Vec::new(),
        }
    }

    /// Adds a called service.
    pub fn with_service(mut self, service: impl Into<String>) -> Self {
        self.services.push(service.into());
        self
    }

    /// Adds an outgoing edge.
    pub fn with_next(mut self, next: impl Into<String>) -> Self {
        self.next_modules.push(next.into());
        self
    }
}

/// A directed edge of the pipeline DAG.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Upstream module.
    pub from: String,
    /// Downstream module.
    pub to: String,
}

/// A complete pipeline specification.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineSpec {
    /// Pipeline name (unique within a deployment).
    pub name: String,
    /// The modules, in declaration order.
    pub modules: Vec<ModuleSpec>,
}

impl PipelineSpec {
    /// Creates an empty pipeline.
    pub fn new(name: impl Into<String>) -> Self {
        PipelineSpec {
            name: name.into(),
            modules: Vec::new(),
        }
    }

    /// Adds a module.
    pub fn with_module(mut self, module: ModuleSpec) -> Self {
        self.modules.push(module);
        self
    }

    /// Looks up a module by name.
    pub(crate) fn module(&self, name: &str) -> Option<&ModuleSpec> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// All edges in declaration order.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        for m in &self.modules {
            for next in &m.next_modules {
                out.push(Edge {
                    from: m.name.clone(),
                    to: next.clone(),
                });
            }
        }
        out
    }

    /// Modules with no incoming edges (the video sources).
    pub fn sources(&self) -> Vec<&ModuleSpec> {
        let targets: BTreeSet<&str> = self
            .modules
            .iter()
            .flat_map(|m| m.next_modules.iter().map(String::as_str))
            .collect();
        self.modules
            .iter()
            .filter(|m| !targets.contains(m.name.as_str()))
            .collect()
    }

    /// Modules with no outgoing edges (the displays/actuators).
    pub fn sinks(&self) -> Vec<&ModuleSpec> {
        self.modules
            .iter()
            .filter(|m| m.next_modules.is_empty())
            .collect()
    }

    /// Validates the spec: non-empty, unique names, edges reference
    /// existing modules, no self-loops, acyclic, and at least one source
    /// and sink.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Validation`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.name.is_empty() {
            return Err(PipelineError::Validation("pipeline name is empty".into()));
        }
        if self.modules.is_empty() {
            return Err(PipelineError::Validation(format!(
                "pipeline {:?} has no modules",
                self.name
            )));
        }
        let mut seen = BTreeSet::new();
        for m in &self.modules {
            if m.name.is_empty() {
                return Err(PipelineError::Validation("module with empty name".into()));
            }
            if !seen.insert(m.name.as_str()) {
                return Err(PipelineError::Validation(format!(
                    "duplicate module name {:?}",
                    m.name
                )));
            }
            if m.include.is_empty() {
                return Err(PipelineError::Validation(format!(
                    "module {:?} has no include",
                    m.name
                )));
            }
        }
        for m in &self.modules {
            for next in &m.next_modules {
                if next == &m.name {
                    return Err(PipelineError::Validation(format!(
                        "module {:?} links to itself",
                        m.name
                    )));
                }
                if !seen.contains(next.as_str()) {
                    return Err(PipelineError::Validation(format!(
                        "module {:?} links to unknown module {next:?}",
                        m.name
                    )));
                }
            }
        }
        // Acyclicity via Kahn's algorithm; also yields the topo order.
        self.topo_order()?;
        if self.sources().is_empty() {
            return Err(PipelineError::Validation(format!(
                "pipeline {:?} has no source module",
                self.name
            )));
        }
        if self.sinks().is_empty() {
            return Err(PipelineError::Validation(format!(
                "pipeline {:?} has no sink module",
                self.name
            )));
        }
        Ok(())
    }

    /// Topological order of the module names.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Validation`] when the graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<String>, PipelineError> {
        let mut indegree: BTreeMap<&str, usize> =
            self.modules.iter().map(|m| (m.name.as_str(), 0)).collect();
        for m in &self.modules {
            for next in &m.next_modules {
                if let Some(d) = indegree.get_mut(next.as_str()) {
                    *d += 1;
                }
            }
        }
        let mut queue: VecDeque<&str> = self
            .modules
            .iter()
            .filter(|m| indegree[m.name.as_str()] == 0)
            .map(|m| m.name.as_str())
            .collect();
        let mut order = Vec::with_capacity(self.modules.len());
        while let Some(name) = queue.pop_front() {
            order.push(name.to_string());
            if let Some(m) = self.module(name) {
                for next in &m.next_modules {
                    if let Some(d) = indegree.get_mut(next.as_str()) {
                        *d -= 1;
                        if *d == 0 {
                            queue.push_back(next.as_str());
                        }
                    }
                }
            }
        }
        if order.len() != self.modules.len() {
            return Err(PipelineError::Validation(format!(
                "pipeline {:?} contains a cycle",
                self.name
            )));
        }
        Ok(order)
    }

    /// The longest path (in module count) from any source to any sink —
    /// the pipeline depth.
    pub fn depth(&self) -> usize {
        let Ok(order) = self.topo_order() else {
            return 0;
        };
        let mut dist: BTreeMap<&str, usize> = BTreeMap::new();
        let mut best = 0;
        for name in &order {
            let d = *dist.get(name.as_str()).unwrap_or(&1).max(&1);
            best = best.max(d);
            if let Some(m) = self.module(name) {
                for next in &m.next_modules {
                    let entry = dist.entry(next.as_str()).or_insert(0);
                    *entry = (*entry).max(d + 1);
                }
            }
        }
        // dist keys borrow from order; recompute best including dist values.
        for (_, d) in dist {
            best = best.max(d);
        }
        best
    }

    /// All service names referenced by any module, sorted and deduplicated.
    pub fn required_services(&self) -> Vec<String> {
        let mut services: Vec<String> = self
            .modules
            .iter()
            .flat_map(|m| m.services.iter().cloned())
            .collect();
        services.sort();
        services.dedup();
        services
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_pipeline() -> PipelineSpec {
        PipelineSpec::new("fitness")
            .with_module(ModuleSpec::new("src", "video").with_next("pose"))
            .with_module(
                ModuleSpec::new("pose", "pose_mod")
                    .with_service("pose_detector")
                    .with_next("display"),
            )
            .with_module(ModuleSpec::new("display", "display_mod"))
    }

    #[test]
    fn valid_linear_pipeline() {
        let spec = linear_pipeline();
        spec.validate().unwrap();
        assert_eq!(spec.topo_order().unwrap(), vec!["src", "pose", "display"]);
        assert_eq!(spec.sources().len(), 1);
        assert_eq!(spec.sinks().len(), 1);
        assert_eq!(spec.depth(), 3);
        assert_eq!(spec.edges().len(), 2);
        assert_eq!(spec.required_services(), vec!["pose_detector"]);
    }

    #[test]
    fn fan_out_pipeline() {
        // activity → {rep_counter, display}; rep_counter → display
        // (the paper's fitness DAG shape).
        let spec = PipelineSpec::new("p")
            .with_module(ModuleSpec::new("a", "i").with_next("b"))
            .with_module(ModuleSpec::new("b", "i").with_next("c").with_next("d"))
            .with_module(ModuleSpec::new("c", "i").with_next("d"))
            .with_module(ModuleSpec::new("d", "i"));
        spec.validate().unwrap();
        assert_eq!(spec.depth(), 4);
        assert_eq!(spec.sinks().len(), 1);
        assert_eq!(spec.edges().len(), 4);
    }

    #[test]
    fn rejects_duplicate_names() {
        let spec = PipelineSpec::new("p")
            .with_module(ModuleSpec::new("a", "i"))
            .with_module(ModuleSpec::new("a", "i"));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn rejects_unknown_edge_target() {
        let spec = PipelineSpec::new("p").with_module(ModuleSpec::new("a", "i").with_next("ghost"));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn rejects_self_loop() {
        let spec = PipelineSpec::new("p").with_module(ModuleSpec::new("a", "i").with_next("a"));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn rejects_cycle() {
        let spec = PipelineSpec::new("p")
            .with_module(ModuleSpec::new("a", "i").with_next("b"))
            .with_module(ModuleSpec::new("b", "i").with_next("a"));
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn rejects_empty_pipeline_and_names() {
        assert!(PipelineSpec::new("p").validate().is_err());
        assert!(PipelineSpec::new("")
            .with_module(ModuleSpec::new("a", "i"))
            .validate()
            .is_err());
        assert!(PipelineSpec::new("p")
            .with_module(ModuleSpec::new("", "i"))
            .validate()
            .is_err());
        assert!(PipelineSpec::new("p")
            .with_module(ModuleSpec::new("a", ""))
            .validate()
            .is_err());
    }

    #[test]
    fn cycle_means_no_source_detected_first_as_cycle() {
        // A pure cycle has no sources; topo check fires first.
        let spec = PipelineSpec::new("p")
            .with_module(ModuleSpec::new("a", "i").with_next("b"))
            .with_module(ModuleSpec::new("b", "i").with_next("c"))
            .with_module(ModuleSpec::new("c", "i").with_next("a"));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn module_lookup() {
        let spec = linear_pipeline();
        assert!(spec.module("pose").is_some());
        assert!(spec.module("ghost").is_none());
    }

    #[test]
    fn builder_methods() {
        let m = ModuleSpec::new("n", "i")
            .with_service("s1")
            .with_service("s2")
            .with_next("x");
        assert_eq!(m.services, vec!["s1", "s2"]);
        assert_eq!(m.next_modules, vec!["x"]);
    }
}
