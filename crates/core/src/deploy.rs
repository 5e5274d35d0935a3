//! Deployment planning: devices, placements, service bindings and the
//! modeled-latency placement optimiser.
//!
//! The paper deploys modules manually ("we move this computation to a
//! desktop", §4.1) and names automatic deployment as future work (§7). This
//! module implements both: [`plan`] validates and wires an explicit
//! placement, and [`autoplace_pinned`] searches placements using a per-frame
//! latency model — which also powers the placement ablation bench.

use crate::error::PipelineError;
use crate::spec::PipelineSpec;
use std::collections::{BTreeMap, BTreeSet};

/// A heterogeneous edge device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Unique device name.
    pub name: String,
    /// Compute speed relative to the reference device (2.0 = twice as
    /// fast). Module/service costs divide by this.
    pub speed_factor: f64,
    /// Executor cores available to services on this device.
    pub cores: u32,
    /// Whether the device can run containers (paper §2.2: "we can only
    /// deploy the services on the devices that support containers").
    pub supports_containers: bool,
    /// Service images preinstalled on this device.
    pub installed_services: Vec<String>,
}

impl DeviceSpec {
    /// Creates a container-less device (phones, TVs in the paper's setup
    /// run only modules).
    pub fn new(name: impl Into<String>, speed_factor: f64) -> Self {
        DeviceSpec {
            name: name.into(),
            speed_factor,
            cores: 1,
            supports_containers: false,
            installed_services: Vec::new(),
        }
    }

    /// Enables container support with `cores` service executors.
    pub fn with_containers(mut self, cores: u32) -> Self {
        self.supports_containers = true;
        self.cores = cores.max(1);
        self
    }

    /// Preinstalls a service image.
    ///
    /// # Panics
    ///
    /// Panics if the device does not support containers.
    pub fn with_service(mut self, service: impl Into<String>) -> Self {
        assert!(
            self.supports_containers,
            "services require container support"
        );
        self.installed_services.push(service.into());
        self
    }

    /// Whether `service` is installed here.
    pub fn has_service(&self, service: &str) -> bool {
        self.installed_services.iter().any(|s| s == service)
    }
}

/// A module → device assignment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Placement {
    assignments: BTreeMap<String, String>,
}

impl Placement {
    /// Creates an empty placement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `module` to `device` (builder style).
    pub fn assign(mut self, module: impl Into<String>, device: impl Into<String>) -> Self {
        self.assignments.insert(module.into(), device.into());
        self
    }

    /// The device assigned to `module`.
    pub fn device_for(&self, module: &str) -> Option<&str> {
        self.assignments.get(module).map(String::as_str)
    }

    /// Iterates `(module, device)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.assignments
            .iter()
            .map(|(m, d)| (m.as_str(), d.as_str()))
    }
}

/// How a module reaches one of its services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceBinding {
    /// The calling module.
    pub module: String,
    /// The service name.
    pub service: String,
    /// The device hosting the service instance.
    pub device: String,
    /// Whether the call crosses devices (the baseline's remote API call) or
    /// stays local (VideoPipe's co-location).
    pub remote: bool,
}

/// A pipeline edge annotated with its placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedEdge {
    /// Upstream module.
    pub from: String,
    /// Downstream module.
    pub to: String,
    /// Device of the upstream module.
    pub from_device: String,
    /// Device of the downstream module.
    pub to_device: String,
    /// Whether the edge crosses devices (frames must be encoded and sent
    /// over the network).
    pub cross_device: bool,
}

/// A validated, fully wired deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    /// The pipeline being deployed.
    pub pipeline: PipelineSpec,
    /// The devices participating.
    pub devices: Vec<DeviceSpec>,
    /// Module placements.
    pub placement: Placement,
    /// Resolved service bindings (one per module × service).
    pub service_bindings: Vec<ServiceBinding>,
    /// Placed edges.
    pub edges: Vec<PlannedEdge>,
}

impl DeploymentPlan {
    /// The device spec by name.
    pub fn device(&self, name: &str) -> Option<&DeviceSpec> {
        self.devices.iter().find(|d| d.name == name)
    }

    /// The binding for `(module, service)`.
    pub fn binding(&self, module: &str, service: &str) -> Option<&ServiceBinding> {
        self.service_bindings
            .iter()
            .find(|b| b.module == module && b.service == service)
    }

    /// Module names placed on `device`.
    pub fn modules_on(&self, device: &str) -> Vec<&str> {
        self.pipeline
            .modules
            .iter()
            .filter(|m| self.placement.device_for(&m.name) == Some(device))
            .map(|m| m.name.as_str())
            .collect()
    }

    /// Number of remote service bindings (0 means fully co-located, the
    /// VideoPipe ideal).
    pub fn remote_binding_count(&self) -> usize {
        self.service_bindings.iter().filter(|b| b.remote).count()
    }
}

/// Validates `placement` of `spec` onto `devices` and resolves all wiring.
///
/// Service resolution prefers a co-located instance (the VideoPipe design);
/// when the module's device lacks the service, the binding falls back to a
/// remote device that has it (the baseline architecture).
///
/// # Errors
///
/// Returns [`PipelineError`] when the spec is invalid, a module is
/// unassigned, a device is unknown, a device hosts services without
/// container support, or a required service is installed nowhere.
pub fn plan(
    spec: &PipelineSpec,
    devices: &[DeviceSpec],
    placement: &Placement,
) -> Result<DeploymentPlan, PipelineError> {
    spec.validate()?;
    if devices.is_empty() {
        return Err(PipelineError::Deploy("no devices".into()));
    }
    let mut names = BTreeSet::new();
    for d in devices {
        if !names.insert(d.name.as_str()) {
            return Err(PipelineError::Deploy(format!(
                "duplicate device name {:?}",
                d.name
            )));
        }
        if !d.installed_services.is_empty() && !d.supports_containers {
            return Err(PipelineError::Deploy(format!(
                "device {:?} has services but no container support",
                d.name
            )));
        }
        if d.speed_factor <= 0.0 || !d.speed_factor.is_finite() {
            return Err(PipelineError::Deploy(format!(
                "device {:?} has invalid speed factor",
                d.name
            )));
        }
    }

    let device_of = |module: &str| -> Result<&str, PipelineError> {
        let device = placement
            .device_for(module)
            .ok_or_else(|| PipelineError::Deploy(format!("module {module:?} not placed")))?;
        if !names.contains(device) {
            return Err(PipelineError::Deploy(format!(
                "module {module:?} placed on unknown device {device:?}"
            )));
        }
        Ok(device)
    };

    // Resolve service bindings.
    let mut service_bindings = Vec::new();
    for m in &spec.modules {
        let module_device = device_of(&m.name)?;
        for service in &m.services {
            let local = devices
                .iter()
                .find(|d| d.name == module_device && d.has_service(service));
            let binding = if local.is_some() {
                ServiceBinding {
                    module: m.name.clone(),
                    service: service.clone(),
                    device: module_device.to_string(),
                    remote: false,
                }
            } else {
                let host = devices
                    .iter()
                    .find(|d| d.has_service(service))
                    .ok_or_else(|| PipelineError::ServiceUnavailable {
                        module: m.name.clone(),
                        service: service.clone(),
                    })?;
                ServiceBinding {
                    module: m.name.clone(),
                    service: service.clone(),
                    device: host.name.clone(),
                    remote: true,
                }
            };
            service_bindings.push(binding);
        }
    }

    // Place edges.
    let mut edges = Vec::new();
    for e in spec.edges() {
        let from_device = device_of(&e.from)?.to_string();
        let to_device = device_of(&e.to)?.to_string();
        let cross_device = from_device != to_device;
        edges.push(PlannedEdge {
            from: e.from,
            to: e.to,
            from_device,
            to_device,
            cross_device,
        });
    }

    Ok(DeploymentPlan {
        pipeline: spec.clone(),
        devices: devices.to_vec(),
        placement: placement.clone(),
        service_bindings,
        edges,
    })
}

/// Parameters of the per-frame latency model used by [`estimate_latency`]
/// and [`autoplace_pinned`].
#[derive(Debug, Clone)]
pub struct CostParams {
    /// Handler cost per module (reference device), nanoseconds.
    pub module_cost_ns: BTreeMap<String, u64>,
    /// Fallback handler cost, nanoseconds.
    pub default_module_cost_ns: u64,
    /// Compute cost per service (reference device), nanoseconds.
    pub service_cost_ns: BTreeMap<String, u64>,
    /// Request payload size per service, bytes (frames are big, features
    /// are small).
    pub service_request_bytes: BTreeMap<String, usize>,
    /// Fallback request size, bytes.
    pub default_request_bytes: usize,
    /// Response payload size, bytes.
    pub response_bytes: usize,
    /// Encoded frame size crossing a pipeline edge, bytes.
    pub frame_bytes: usize,
    /// Non-frame edge payload size, bytes.
    pub result_bytes: usize,
    /// One-way network latency, nanoseconds.
    pub link_latency_ns: u64,
    /// Network bandwidth, bits per second.
    pub link_bandwidth_bps: u64,
    /// Same-device message handoff cost, nanoseconds.
    pub ipc_ns: u64,
}

impl Default for CostParams {
    /// Wi-Fi-class defaults; the calibrated profile in `videopipe-sim`
    /// overrides per-module/service costs.
    fn default() -> Self {
        CostParams {
            module_cost_ns: BTreeMap::new(),
            default_module_cost_ns: 1_000_000,
            service_cost_ns: BTreeMap::new(),
            service_request_bytes: BTreeMap::new(),
            default_request_bytes: 2_048,
            response_bytes: 512,
            frame_bytes: 12_000,
            result_bytes: 512,
            link_latency_ns: 2_500_000,
            link_bandwidth_bps: 100_000_000,
            ipc_ns: 30_000,
        }
    }
}

impl CostParams {
    /// One-way transfer time for `bytes` over the modeled link.
    pub(crate) fn link_time_ns(&self, bytes: usize) -> u64 {
        self.link_latency_ns
            + (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.link_bandwidth_bps
    }

    fn module_cost(&self, module: &str) -> u64 {
        *self
            .module_cost_ns
            .get(module)
            .unwrap_or(&self.default_module_cost_ns)
    }

    fn service_cost(&self, service: &str) -> u64 {
        *self.service_cost_ns.get(service).unwrap_or(&1_000_000)
    }

    fn request_bytes(&self, service: &str) -> usize {
        *self
            .service_request_bytes
            .get(service)
            .unwrap_or(&self.default_request_bytes)
    }
}

/// Estimates the per-frame latency (ns) of a deployment as the longest
/// source→sink path: module handler costs (scaled by device speed), service
/// calls (local IPC or remote round trip), and edge transfers.
pub fn estimate_latency(plan: &DeploymentPlan, params: &CostParams) -> u64 {
    let order = match plan.pipeline.topo_order() {
        Ok(o) => o,
        Err(_) => return u64::MAX,
    };
    let speed = |device: &str| {
        plan.device(device)
            .map(|d| d.speed_factor)
            .unwrap_or(1.0)
            .max(1e-6)
    };

    // Node cost: handler + service calls.
    let node_cost = |module: &str| -> u64 {
        let device = plan.placement.device_for(module).unwrap_or_default();
        let mut cost = (params.module_cost(module) as f64 / speed(device)) as u64;
        if let Some(spec) = plan.pipeline.module(module) {
            for service in &spec.services {
                let binding = plan.binding(module, service);
                let host = binding.map(|b| b.device.as_str()).unwrap_or(device);
                let compute = (params.service_cost(service) as f64 / speed(host)) as u64;
                let remote = binding.map(|b| b.remote).unwrap_or(false);
                if remote {
                    cost += params.link_time_ns(params.request_bytes(service))
                        + compute
                        + params.link_time_ns(params.response_bytes);
                } else {
                    cost += 2 * params.ipc_ns + compute;
                }
            }
        }
        cost
    };

    // Longest path accumulation in topo order.
    let mut dist: BTreeMap<&str, u64> = BTreeMap::new();
    let mut best = 0u64;
    for name in &order {
        let incoming = *dist.get(name.as_str()).unwrap_or(&0);
        let total = incoming + node_cost(name);
        best = best.max(total);
        if let Some(spec) = plan.pipeline.module(name) {
            for next in &spec.next_modules {
                let edge = plan.edges.iter().find(|e| &e.from == name && e.to == *next);
                let carries_frame = plan.pipeline.sources().iter().any(|s| s.name == *name);
                let edge_cost = match edge {
                    Some(e) if e.cross_device => {
                        let bytes = if carries_frame {
                            params.frame_bytes
                        } else {
                            params.result_bytes
                        };
                        params.link_time_ns(bytes)
                    }
                    _ => params.ipc_ns,
                };
                let entry = dist.entry(next.as_str()).or_insert(0);
                *entry = (*entry).max(total + edge_cost);
            }
        }
    }
    best
}

/// Searches for the placement minimising [`estimate_latency`], with
/// device-affinity pins: modules in `pins` are fixed to their device
/// (camera hardware lives on the phone, the screen on the TV) and only the
/// remaining modules are searched — exhaustively when
/// `devices.len() ^ unpinned modules <= 1 << 16`, greedily (topo order,
/// locally best device) beyond that.
///
/// # Errors
///
/// Returns an error when no valid placement exists (e.g. a required service
/// is installed nowhere) or a pin names an unknown module.
pub fn autoplace_pinned(
    spec: &PipelineSpec,
    devices: &[DeviceSpec],
    params: &CostParams,
    pins: &Placement,
) -> Result<(Placement, u64), PipelineError> {
    for (module, _) in pins.iter() {
        if spec.module(module).is_none() {
            return Err(PipelineError::Deploy(format!(
                "pin references unknown module {module:?}"
            )));
        }
    }
    autoplace_impl(spec, devices, params, pins, 1 << 16)
}

/// Recomputes a deployment after `dead_device` is confirmed lost.
///
/// Modules already on surviving devices stay exactly where they are (their
/// state, threads and caches are intact — moving them would widen the
/// outage), so only the orphans stranded on the dead device are re-placed,
/// via [`autoplace_pinned`] restricted to the survivors. `affinity` pins
/// win over current positions: a camera module affined to the phone is
/// re-pinned there even if the optimiser would rather move it.
///
/// # Errors
///
/// Returns [`PipelineError::Deploy`] when no device survives, and
/// propagates [`PipelineError::ServiceUnavailable`] when a service the
/// pipeline needs was installed only on the dead device — the pipeline
/// genuinely cannot heal without it.
pub fn replan_after_device_loss(
    current: &DeploymentPlan,
    dead_device: &str,
    params: &CostParams,
    affinity: &Placement,
) -> Result<DeploymentPlan, PipelineError> {
    let survivors: Vec<DeviceSpec> = current
        .devices
        .iter()
        .filter(|d| d.name != dead_device)
        .cloned()
        .collect();
    if survivors.is_empty() {
        return Err(PipelineError::Deploy(format!(
            "no devices survive the loss of {dead_device:?}"
        )));
    }
    // Surface the un-healable case with a typed error: a service the
    // pipeline needs that was installed only on the dead device.
    for m in &current.pipeline.modules {
        for service in &m.services {
            if !survivors.iter().any(|d| d.has_service(service)) {
                return Err(PipelineError::ServiceUnavailable {
                    module: m.name.clone(),
                    service: service.clone(),
                });
            }
        }
    }
    let mut pins = Placement::new();
    for (module, device) in current.placement.iter() {
        if device != dead_device {
            pins = pins.assign(module, device);
        }
    }
    for (module, device) in affinity.iter() {
        if survivors.iter().any(|d| d.name == device) {
            pins = pins.assign(module, device);
        }
    }
    let (placement, _) = autoplace_pinned(&current.pipeline, &survivors, params, &pins)?;
    plan(&current.pipeline, &survivors, &placement)
}

fn autoplace_impl(
    spec: &PipelineSpec,
    devices: &[DeviceSpec],
    params: &CostParams,
    pins: &Placement,
    max_enumerate: u64,
) -> Result<(Placement, u64), PipelineError> {
    spec.validate()?;
    if devices.is_empty() {
        return Err(PipelineError::Deploy("no devices".into()));
    }
    let free_modules: Vec<&str> = spec
        .modules
        .iter()
        .map(|m| m.name.as_str())
        .filter(|m| pins.device_for(m).is_none())
        .collect();
    let n_free = free_modules.len() as u32;
    let combos = (devices.len() as u64).checked_pow(n_free);

    let with_pins = |placement: Placement| -> Placement {
        let mut out = placement;
        for (module, device) in pins.iter() {
            out = out.assign(module.to_string(), device.to_string());
        }
        out
    };

    if combos.map(|c| c <= max_enumerate).unwrap_or(false) {
        // Exhaustive enumeration over the free modules.
        let mut best: Option<(Placement, u64)> = None;
        let mut indices = vec![0usize; free_modules.len()];
        loop {
            let mut placement = Placement::new();
            for (m, &di) in free_modules.iter().zip(indices.iter()) {
                placement = placement.assign(m.to_string(), devices[di].name.clone());
            }
            let placement = with_pins(placement);
            if let Ok(p) = plan(spec, devices, &placement) {
                let cost = estimate_latency(&p, params);
                if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
                    best = Some((placement, cost));
                }
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == indices.len() {
                    return best
                        .ok_or_else(|| PipelineError::Deploy("no valid placement exists".into()));
                }
                indices[i] += 1;
                if indices[i] < devices.len() {
                    break;
                }
                indices[i] = 0;
                i += 1;
            }
        }
    }

    // Greedy: place free modules in topo order, trying each device and
    // keeping the partial plan that minimises the estimate (the remaining
    // modules temporarily parked on the first device).
    let order = spec.topo_order()?;
    let mut placement = with_pins(Placement::new());
    for name in &order {
        if placement.device_for(name).is_some() {
            continue; // pinned
        }
        let mut best: Option<(String, u64)> = None;
        for d in devices {
            let mut candidate = placement.clone().assign(name.clone(), d.name.clone());
            for other in &order {
                if candidate.device_for(other).is_none() {
                    candidate = candidate.assign(other.clone(), devices[0].name.clone());
                }
            }
            if let Ok(p) = plan(spec, devices, &candidate) {
                let cost = estimate_latency(&p, params);
                if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
                    best = Some((d.name.clone(), cost));
                }
            }
        }
        let (device, _) =
            best.ok_or_else(|| PipelineError::Deploy("no valid placement exists".into()))?;
        placement = placement.assign(name.clone(), device);
    }
    let p = plan(spec, devices, &placement)?;
    let cost = estimate_latency(&p, params);
    Ok((placement, cost))
}

#[cfg(test)]
impl Placement {
    /// Number of assigned modules.
    pub(crate) fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the placement is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModuleSpec;

    fn fitness_spec() -> PipelineSpec {
        PipelineSpec::new("fitness")
            .with_module(ModuleSpec::new("video", "V").with_next("pose"))
            .with_module(
                ModuleSpec::new("pose", "P")
                    .with_service("pose_detector")
                    .with_next("display"),
            )
            .with_module(ModuleSpec::new("display", "D"))
    }

    fn devices() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::new("phone", 0.6),
            DeviceSpec::new("desktop", 2.0)
                .with_containers(2)
                .with_service("pose_detector"),
            DeviceSpec::new("tv", 0.8),
        ]
    }

    fn videopipe_placement() -> Placement {
        Placement::new()
            .assign("video", "phone")
            .assign("pose", "desktop")
            .assign("display", "tv")
    }

    #[test]
    fn plan_colocated_service_is_local() {
        let plan = plan(&fitness_spec(), &devices(), &videopipe_placement()).unwrap();
        let binding = plan.binding("pose", "pose_detector").unwrap();
        assert!(!binding.remote);
        assert_eq!(binding.device, "desktop");
        assert_eq!(plan.remote_binding_count(), 0);
        assert_eq!(plan.edges.len(), 2);
        assert!(plan.edges.iter().all(|e| e.cross_device));
        assert_eq!(plan.modules_on("desktop"), vec!["pose"]);
    }

    #[test]
    fn plan_baseline_service_is_remote() {
        // All modules on the phone: pose service resolves remotely.
        let placement = Placement::new()
            .assign("video", "phone")
            .assign("pose", "phone")
            .assign("display", "phone");
        let plan = plan(&fitness_spec(), &devices(), &placement).unwrap();
        let binding = plan.binding("pose", "pose_detector").unwrap();
        assert!(binding.remote);
        assert_eq!(binding.device, "desktop");
        assert!(plan.edges.iter().all(|e| !e.cross_device));
    }

    #[test]
    fn plan_rejects_unplaced_and_unknown() {
        let p = Placement::new().assign("video", "phone");
        assert!(plan(&fitness_spec(), &devices(), &p).is_err());
        let p = videopipe_placement().assign("pose", "ghost-device");
        assert!(plan(&fitness_spec(), &devices(), &p).is_err());
    }

    #[test]
    fn plan_rejects_missing_service() {
        let devices = vec![DeviceSpec::new("phone", 1.0)];
        let placement = Placement::new()
            .assign("video", "phone")
            .assign("pose", "phone")
            .assign("display", "phone");
        let err = plan(&fitness_spec(), &devices, &placement).unwrap_err();
        assert!(matches!(err, PipelineError::ServiceUnavailable { .. }));
    }

    #[test]
    fn plan_rejects_services_without_containers() {
        let mut d = DeviceSpec::new("weird", 1.0);
        d.installed_services.push("pose_detector".into());
        assert!(plan(&fitness_spec(), &[d], &videopipe_placement()).is_err());
    }

    #[test]
    fn plan_rejects_duplicate_devices_and_bad_speed() {
        let ds = vec![DeviceSpec::new("a", 1.0), DeviceSpec::new("a", 1.0)];
        assert!(plan(&fitness_spec(), &ds, &videopipe_placement()).is_err());
        let ds = vec![DeviceSpec::new("phone", 0.0)];
        assert!(plan(&fitness_spec(), &ds, &videopipe_placement()).is_err());
    }

    #[test]
    fn colocated_estimate_beats_baseline() {
        // The paper's headline claim, at the model level.
        let spec = fitness_spec();
        let devices = devices();
        let mut params = CostParams::default();
        params
            .service_cost_ns
            .insert("pose_detector".into(), 170_000_000);
        params
            .service_request_bytes
            .insert("pose_detector".into(), 12_000);

        let vp = plan(&spec, &devices, &videopipe_placement()).unwrap();
        let baseline_placement = Placement::new()
            .assign("video", "phone")
            .assign("pose", "phone")
            .assign("display", "phone");
        let bl = plan(&spec, &devices, &baseline_placement).unwrap();

        let vp_lat = estimate_latency(&vp, &params);
        let bl_lat = estimate_latency(&bl, &params);
        assert!(
            vp_lat < bl_lat,
            "VideoPipe {vp_lat}ns should beat baseline {bl_lat}ns"
        );
    }

    #[test]
    fn autoplace_colocates_pose_with_its_service() {
        let mut params = CostParams::default();
        params
            .service_cost_ns
            .insert("pose_detector".into(), 170_000_000);
        let (placement, cost) =
            autoplace_pinned(&fitness_spec(), &devices(), &params, &Placement::new()).unwrap();
        assert_eq!(placement.device_for("pose"), Some("desktop"));
        assert!(cost > 0);
    }

    #[test]
    fn autoplace_greedy_matches_feasibility() {
        // Force the greedy path with a tiny enumeration budget.
        let mut params = CostParams::default();
        params
            .service_cost_ns
            .insert("pose_detector".into(), 170_000_000);
        let (placement, _) =
            autoplace_impl(&fitness_spec(), &devices(), &params, &Placement::new(), 1).unwrap();
        // Greedy must still produce a valid plan.
        assert!(plan(&fitness_spec(), &devices(), &placement).is_ok());
    }

    #[test]
    fn autoplace_pinned_respects_pins() {
        let mut params = CostParams::default();
        params
            .service_cost_ns
            .insert("pose_detector".into(), 170_000_000);
        // Without pins the optimiser would park everything on the fast
        // desktop; pinning the camera to the phone forces realism.
        let pins = Placement::new().assign("video", "phone");
        let (placement, _) = autoplace_pinned(&fitness_spec(), &devices(), &params, &pins).unwrap();
        assert_eq!(placement.device_for("video"), Some("phone"));
        assert_eq!(placement.device_for("pose"), Some("desktop"));
        // Pinning an unknown module errors.
        let bad = Placement::new().assign("ghost", "phone");
        assert!(autoplace_pinned(&fitness_spec(), &devices(), &params, &bad).is_err());
    }

    #[test]
    fn autoplace_errors_when_impossible() {
        let devices = vec![DeviceSpec::new("phone", 1.0)]; // no service anywhere
        assert!(autoplace_pinned(
            &fitness_spec(),
            &devices,
            &CostParams::default(),
            &Placement::new()
        )
        .is_err());
    }

    #[test]
    fn replan_moves_only_the_orphans() {
        let devices = vec![
            DeviceSpec::new("phone", 0.6),
            DeviceSpec::new("desktop", 2.0)
                .with_containers(2)
                .with_service("pose_detector"),
            DeviceSpec::new("tv", 0.8)
                .with_containers(1)
                .with_service("pose_detector"),
        ];
        let before = plan(&fitness_spec(), &devices, &videopipe_placement()).unwrap();
        let healed = replan_after_device_loss(
            &before,
            "desktop",
            &CostParams::default(),
            &Placement::new(),
        )
        .unwrap();
        // Survivors keep their modules; the orphan lands on a survivor.
        assert_eq!(healed.placement.device_for("video"), Some("phone"));
        assert_eq!(healed.placement.device_for("display"), Some("tv"));
        let new_home = healed.placement.device_for("pose").unwrap();
        assert_ne!(new_home, "desktop");
        assert!(healed.devices.iter().all(|d| d.name != "desktop"));
        // The service binding re-resolves against survivors.
        assert_eq!(
            healed.binding("pose", "pose_detector").unwrap().device,
            "tv"
        );
    }

    #[test]
    fn replan_respects_affinity_pins() {
        let devices = vec![
            DeviceSpec::new("phone", 0.6),
            DeviceSpec::new("desktop", 2.0)
                .with_containers(2)
                .with_service("pose_detector"),
            DeviceSpec::new("tv", 0.8),
        ];
        // Everything starts on the tv except pose; kill the tv.
        let placement = Placement::new()
            .assign("video", "tv")
            .assign("pose", "desktop")
            .assign("display", "tv");
        let before = plan(&fitness_spec(), &devices, &placement).unwrap();
        let affinity = Placement::new().assign("video", "phone");
        let healed =
            replan_after_device_loss(&before, "tv", &CostParams::default(), &affinity).unwrap();
        assert_eq!(healed.placement.device_for("video"), Some("phone"));
        assert_eq!(healed.placement.device_for("pose"), Some("desktop"));
    }

    #[test]
    fn replan_errors_when_the_only_service_host_dies() {
        let before = plan(&fitness_spec(), &devices(), &videopipe_placement()).unwrap();
        // Only the desktop hosts pose_detector.
        let err = replan_after_device_loss(
            &before,
            "desktop",
            &CostParams::default(),
            &Placement::new(),
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::ServiceUnavailable { .. }));
    }

    #[test]
    fn replan_errors_when_no_device_survives() {
        let spec = PipelineSpec::new("solo").with_module(ModuleSpec::new("only", "O"));
        let devices = vec![DeviceSpec::new("phone", 1.0)];
        let placement = Placement::new().assign("only", "phone");
        let before = plan(&spec, &devices, &placement).unwrap();
        assert!(replan_after_device_loss(
            &before,
            "phone",
            &CostParams::default(),
            &Placement::new()
        )
        .is_err());
    }

    #[test]
    fn link_time_accounts_latency_and_bandwidth() {
        let params = CostParams::default();
        let t_small = params.link_time_ns(100);
        let t_big = params.link_time_ns(100_000);
        assert!(t_big > t_small);
        assert!(t_small >= params.link_latency_ns);
        // 100 KB at 100 Mbit/s = 8 ms + latency.
        assert_eq!(
            params.link_time_ns(100_000),
            params.link_latency_ns + 8_000_000
        );
    }

    #[test]
    fn placement_accessors() {
        let p = videopipe_placement();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.device_for("video"), Some("phone"));
        assert_eq!(p.iter().count(), 3);
    }

    #[test]
    #[should_panic(expected = "container")]
    fn with_service_requires_containers() {
        let _ = DeviceSpec::new("phone", 1.0).with_service("x");
    }
}
