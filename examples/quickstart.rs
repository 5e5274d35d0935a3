//! Quickstart: build a three-module pipeline with a custom service, deploy
//! it on the runtime, and watch frames flow.
//!
//! This is the "hello world" of the module API (the paper's Table 1):
//! a source mints frames, a processing module calls a stateless service,
//! and the sink signals the source for the next frame (the no-queue flow
//! control of §2.3).
//!
//! Run with `cargo run --example quickstart`.

use std::sync::Arc;
use std::time::Duration;
use videopipe::core::prelude::*;
use videopipe::core::service::{ServiceCost, ServiceRequest, ServiceResponse};
use videopipe::media::{Frame, FrameBuf, FrameStore};

/// The camera: mints a tiny frame per admitted tick and forwards its
/// *reference* (frames never get copied between co-located modules).
struct CameraModule;

impl Module for CameraModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::FrameTick { t_ns } = event {
            let mut buf = FrameBuf::new(64, 48);
            // Paint something that depends on the frame number.
            let shade = (ctx.header().frame_seq % 200) as u8 + 30;
            buf.draw_disc(32, 24, 10, shade);
            let frame: Frame = buf.freeze(ctx.header().frame_seq, t_ns);
            let id = ctx.frame_store().insert(frame);
            ctx.call_module("brightness", Payload::FrameRef(id))?;
        }
        Ok(())
    }
}

/// Calls the brightness service on each frame and forwards the result.
struct BrightnessModule;

impl Module for BrightnessModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(msg) = event {
            let response = ctx.call_service(
                "mean_brightness",
                ServiceRequest::new("mean", msg.payload.clone()),
            )?;
            if let Payload::FrameRef(id) = msg.payload {
                ctx.frame_store().release(id);
            }
            ctx.call_module("printer", response.payload)?;
        }
        Ok(())
    }
}

/// Prints the measurement and returns the flow-control credit.
struct PrinterModule;

impl Module for PrinterModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(msg) = event {
            if let Payload::Count(brightness) = msg.payload {
                if msg.header.frame_seq % 25 == 0 {
                    ctx.log(&format!(
                        "frame {:>4}: mean brightness {brightness}",
                        msg.header.frame_seq
                    ));
                }
            }
            ctx.signal_source()?;
        }
        Ok(())
    }
}

/// A stateless service computing the mean pixel intensity of a frame.
struct MeanBrightnessService;

impl Service for MeanBrightnessService {
    fn name(&self) -> &str {
        "mean_brightness"
    }

    fn handle(
        &self,
        request: &ServiceRequest,
        store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        let Payload::FrameRef(id) = request.payload else {
            return Err(videopipe::core::service::wrong_payload(
                self.name(),
                "frame_ref",
                &request.payload,
            ));
        };
        let frame = store.get(id)?;
        let sum: u64 = frame.pixels().iter().map(|&p| u64::from(p)).sum();
        Ok(ServiceResponse::new(Payload::Count(
            sum / frame.raw_size() as u64,
        )))
    }

    fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
        ServiceCost::flat(Duration::from_micros(200))
    }
}

fn main() -> Result<(), PipelineError> {
    // 1. The pipeline DAG — identical to writing the Listing-1 config.
    let spec = videopipe::core::config::parse(
        r#"
        pipeline: quickstart
        modules: [
            { name: camera     include("CameraModule.js")      next_module: brightness }
            { name: brightness include("BrightnessModule.js")
              service: ['mean_brightness']                     next_module: printer }
            { name: printer    include("PrinterModule.js") }
        ]"#,
    )?;

    // 2. One device that supports containers and has the service installed.
    let devices = vec![DeviceSpec::new("laptop", 1.0)
        .with_containers(2)
        .with_service("mean_brightness")];
    let placement = Placement::new()
        .assign("camera", "laptop")
        .assign("brightness", "laptop")
        .assign("printer", "laptop");
    let plan = videopipe::core::deploy::plan(&spec, &devices, &placement)?;

    // 3. Module and service registries.
    let mut modules = ModuleRegistry::new();
    modules.register("CameraModule", || Box::new(CameraModule));
    modules.register("BrightnessModule", || Box::new(BrightnessModule));
    modules.register("PrinterModule", || Box::new(PrinterModule));
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(MeanBrightnessService));

    // 4. Deploy on the runtime and run for two seconds.
    let mut runtime = ReactorRuntime::new(ReactorConfig::default());
    let config = RuntimeConfig {
        fps: 100.0,
        ..RuntimeConfig::default()
    };
    runtime.add_pipeline(&plan, &modules, &services, config)?;
    println!("pipeline deployed; running for 2 s at a 100 FPS source...");
    let report = runtime.run_for(Duration::from_secs(2)).remove(0);

    for line in &report.logs {
        println!("  {line}");
    }
    println!();
    println!(
        "delivered {} frames ({:.1} fps end-to-end), {} offered, {} dropped at source",
        report.metrics.frames_delivered,
        report.metrics.fps(),
        report.metrics.frames_offered,
        report.metrics.frames_dropped,
    );
    println!("\nper-stage latency:\n{}", report.metrics.latency_table());
    if !report.errors.is_empty() {
        println!("errors: {:?}", report.errors);
    }
    Ok(())
}
