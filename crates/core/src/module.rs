//! The module abstraction — the paper's Table 1 API.
//!
//! | Paper (JavaScript)             | Here (Rust)                          |
//! |--------------------------------|--------------------------------------|
//! | `init()`                       | [`Module::init`]                     |
//! | `event_received(message)`      | [`Module::on_event`]                 |
//! | `call_service(service, msg)`   | [`ModuleCtx::call_service`]          |
//! | `call_module(module, msg)`     | [`ModuleCtx::call_module`]           |
//!
//! Each module instance runs in its own isolated context (a thread in the
//! local runtime, an entity in the simulator) with its own encapsulated
//! state — mirroring the paper's one-Duktape-context-per-module design.

use crate::error::PipelineError;
use crate::message::{Header, Message, Payload};
use crate::service::{ServiceRequest, ServiceResponse};
use videopipe_media::FrameStore;

/// An event delivered to a module.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// A camera tick admitted by flow control (source modules only). The
    /// timestamp is the capture time on the pipeline clock.
    FrameTick {
        /// Capture timestamp in nanoseconds.
        t_ns: u64,
    },
    /// A message arriving along a DAG edge.
    Message(Message),
}

/// A processing unit in a video pipeline.
///
/// Modules are single-threaded, event-driven, and own their state. All
/// interaction with the world goes through the [`ModuleCtx`].
pub trait Module: Send {
    /// Called once when the module is deployed on its device.
    ///
    /// # Errors
    ///
    /// An error aborts deployment of the pipeline.
    fn init(&mut self, _ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        Ok(())
    }

    /// Called for every event.
    ///
    /// # Errors
    ///
    /// An error drops the current frame; the runtime records it and keeps
    /// the pipeline alive.
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError>;

    /// Serialises the module's recoverable state for checkpointing.
    ///
    /// The runtime calls this periodically; on failover (or a supervised
    /// restart) the latest snapshot is handed to [`Module::restore`] on the
    /// fresh instance. Stateless modules keep the default — `None` costs
    /// nothing and is never stored.
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Rebuilds state from a snapshot previously produced by
    /// [`Module::snapshot`] on an instance of the same module.
    ///
    /// Best-effort by design: an unreadable snapshot should leave the
    /// module in its freshly-constructed state rather than fail, since
    /// restore runs while the pipeline is already degraded.
    fn restore(&mut self, _snapshot: &[u8]) {}
}

/// The capabilities a runtime exposes to a module.
///
/// Object-safe so modules run identically on the runtime and the
/// simulator.
pub trait ModuleCtx {
    /// Synchronously calls a stateless service and returns its response.
    ///
    /// Co-located services are an in-process call; remote services cost a
    /// round trip — exactly the difference the paper evaluates.
    ///
    /// # Errors
    ///
    /// [`PipelineError::ServiceUnavailable`] when the service is not
    /// reachable, or the service's own failure.
    fn call_service(
        &mut self,
        service: &str,
        request: ServiceRequest,
    ) -> Result<ServiceResponse, PipelineError>;

    /// Sends a payload to a downstream module along a DAG edge. The current
    /// frame header is propagated automatically.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Validation`] when `target` is not a declared next
    /// module, or transport errors.
    fn call_module(&mut self, target: &str, payload: Payload) -> Result<(), PipelineError>;

    /// Signals the source that this frame has left the pipeline (the final
    /// module calls this; see paper §2.3 — no queues, drop at source).
    ///
    /// # Errors
    ///
    /// Transport errors reaching the source.
    fn signal_source(&mut self) -> Result<(), PipelineError>;

    /// Current pipeline-clock time in nanoseconds.
    fn now_ns(&self) -> u64;

    /// This module's name.
    fn module_name(&self) -> &str;

    /// The device this module instance runs on.
    fn device_name(&self) -> &str;

    /// The device-local frame store (for [`Payload::FrameRef`] payloads).
    fn frame_store(&self) -> &FrameStore;

    /// The header of the event being processed (frame identity).
    fn header(&self) -> Header;

    /// Overrides the current header — source modules call this when they
    /// mint a new frame.
    fn set_header(&mut self, header: Header);

    /// Emits a log line attributed to this module.
    fn log(&mut self, text: &str);
}

/// A shareable module constructor. The runtime keeps the factory of every
/// deployed module so supervision can re-instantiate one that panicked.
pub type ModuleFactory = std::sync::Arc<dyn Fn() -> Box<dyn Module> + Send + Sync>;

/// A registry mapping `include` keys from the pipeline configuration to
/// module constructors (the analogue of loading `./PoseDetectorModule.js`).
pub struct ModuleRegistry {
    factories: std::collections::HashMap<String, ModuleFactory>,
}

impl ModuleRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ModuleRegistry {
            factories: std::collections::HashMap::new(),
        }
    }

    /// Registers a module constructor under `include` key `name`.
    /// Re-registering a name replaces the previous factory.
    pub fn register<F>(&mut self, name: &str, factory: F)
    where
        F: Fn() -> Box<dyn Module> + Send + Sync + 'static,
    {
        self.factories
            .insert(name.to_string(), std::sync::Arc::new(factory));
    }

    /// Instantiates the module registered under `name`.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Deploy`] when the name is unknown.
    pub fn instantiate(&self, name: &str) -> Result<Box<dyn Module>, PipelineError> {
        self.factories
            .get(name)
            .map(|f| f())
            .ok_or_else(|| PipelineError::Deploy(format!("unknown module include {name:?}")))
    }

    /// Returns the factory registered under `name`, for runtimes that need
    /// to rebuild a module instance later (supervision restarts).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Deploy`] when the name is unknown.
    pub fn factory(&self, name: &str) -> Result<ModuleFactory, PipelineError> {
        self.factories
            .get(name)
            .cloned()
            .ok_or_else(|| PipelineError::Deploy(format!("unknown module include {name:?}")))
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Registered include keys, sorted.
    pub(crate) fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.factories.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

impl Default for ModuleRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ModuleRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleRegistry")
            .field("modules", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoopModule;
    impl Module for NoopModule {
        fn on_event(&mut self, _: Event, _: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            Ok(())
        }
    }

    #[test]
    fn registry_roundtrip() {
        let mut reg = ModuleRegistry::new();
        assert!(!reg.contains("noop"));
        reg.register("noop", || Box::new(NoopModule));
        assert!(reg.contains("noop"));
        assert!(reg.instantiate("noop").is_ok());
        assert!(reg.instantiate("ghost").is_err());
        assert_eq!(reg.names(), vec!["noop"]);
        let factory = reg.factory("noop").unwrap();
        let _fresh: Box<dyn Module> = factory();
        assert!(reg.factory("ghost").is_err());
    }

    #[test]
    fn registry_replaces_on_reregister() {
        let mut reg = ModuleRegistry::new();
        reg.register("m", || Box::new(NoopModule));
        reg.register("m", || Box::new(NoopModule));
        assert_eq!(reg.names().len(), 1);
    }

    #[test]
    fn module_trait_is_object_safe() {
        let _: Box<dyn Module> = Box::new(NoopModule);
    }

    #[test]
    fn default_snapshot_is_stateless() {
        let mut m = NoopModule;
        assert!(m.snapshot().is_none());
        m.restore(b"ignored"); // default restore is a no-op
        assert!(m.snapshot().is_none());
    }
}
