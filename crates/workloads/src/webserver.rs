//! Web-server workload models (Table III).
//!
//! The paper stresses Apache2 and Nginx with the Apache Benchmark tool
//! (100 000 requests, concurrency 500) and reports the mean time per
//! request under native execution, compiler-based P-SSP and
//! instrumentation-based P-SSP.  The reproduction models the two servers'
//! request-handling paths as MiniC programs:
//!
//! * the **Apache-like** server follows the prefork model — every request is
//!   handled in a forked worker and runs a comparatively heavy handler
//!   (module dispatch, filters, logging), and
//! * the **Nginx-like** server follows the event-loop model — a long-lived
//!   worker handles many requests without forking and the per-request path
//!   is much shorter.
//!
//! What Table III demonstrates is that the canary work is lost in the noise
//! of the request path; the reproduction preserves exactly that ratio.

use std::sync::Arc;

use polycanary_compiler::ir::{FunctionBuilder, ModuleBuilder, ModuleDef};
use polycanary_core::record::Record;
use polycanary_crypto::{Prng, SplitMix64};
use polycanary_vm::machine::Machine;

use crate::build::{build_machine, Build};

/// Conversion factor from simulated cycles to simulated milliseconds, chosen
/// so the Apache-like server lands in the tens-of-milliseconds range the
/// paper reports (33 ms per request at concurrency 500).
pub const CYCLES_PER_MS: f64 = 25_000.0;

/// Which server model to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerModel {
    /// Apache2-like prefork server: fork per request, heavyweight handler.
    ApacheLike,
    /// Nginx-like event server: shared worker, lightweight handler.
    NginxLike,
}

impl ServerModel {
    /// Display name used in Table III output.
    pub fn name(&self) -> &'static str {
        match self {
            ServerModel::ApacheLike => "Apache2",
            ServerModel::NginxLike => "Nginx",
        }
    }

    /// Cycles of handler body work per request (excluding canary handling).
    fn handler_cycles(&self) -> u64 {
        match self {
            // ~33 ms at CYCLES_PER_MS.
            ServerModel::ApacheLike => 820_000,
            // ~3 ms at CYCLES_PER_MS.
            ServerModel::NginxLike => 76_000,
        }
    }

    /// Number of helper functions the handler calls per request.
    fn helpers(&self) -> u32 {
        match self {
            ServerModel::ApacheLike => 6,
            ServerModel::NginxLike => 3,
        }
    }

    /// Whether a worker is forked per request (prefork) or shared.
    pub fn forks_per_request(&self) -> bool {
        matches!(self, ServerModel::ApacheLike)
    }

    /// Generates the server's MiniC module.
    pub fn module(&self) -> ModuleDef {
        let helpers = self.helpers();
        let per_helper = self.handler_cycles() / u64::from(helpers + 1);
        // Each helper's name is made once and shared by its call.
        let modules: Vec<Arc<str>> = (0..helpers).map(|h| format!("module_{h}").into()).collect();
        let mut builder = ModuleBuilder::new();
        let mut handler = FunctionBuilder::new("handle_request")
            .buffer("request_line", 128)
            .buffer("headers", 256)
            .safe_copy("request_line")
            .compute(per_helper);
        for module in &modules {
            handler = handler.call(Arc::clone(module));
        }
        builder = builder.function(handler.returns(200).build());
        for module in modules {
            builder = builder.function(
                FunctionBuilder::new(module)
                    .buffer("scratch", 64)
                    .safe_copy("scratch")
                    .compute(per_helper)
                    .returns(0)
                    .build(),
            );
        }
        builder = builder.function(
            FunctionBuilder::new("main").scalar("fd").call("handle_request").returns(0).build(),
        );
        builder.entry("main").build().expect("server module is well-formed")
    }
}

/// Result of one load-generation run against one server build.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseTimeReport {
    /// Server model.
    pub server: &'static str,
    /// Build label.
    pub build: String,
    /// Number of requests served.
    pub requests: u64,
    /// Mean time per request in simulated milliseconds.
    pub mean_ms: f64,
    /// Mean cycles per request.
    pub mean_cycles: f64,
}

impl ResponseTimeReport {
    /// The self-describing record form of this report, for JSON/CSV export.
    pub fn record(&self) -> Record {
        Record::new()
            .field("server", self.server)
            .field("build", self.build.as_str())
            .field("requests", self.requests)
            .field("mean_ms", self.mean_ms)
            .field("mean_cycles", self.mean_cycles)
    }
}

/// Load-generator configuration (the `ab` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadConfig {
    /// Number of requests to issue.
    pub requests: u64,
    /// Concurrency level (affects only how often the prefork server reuses a
    /// forked worker before replacing it, mirroring `MaxRequestsPerChild`).
    pub concurrency: u64,
    /// Seed for request-size jitter.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        // The paper uses 100 000 requests at concurrency 500; the default is
        // scaled down so unit tests stay fast.  Benches pass larger values.
        LoadConfig { requests: 200, concurrency: 50, seed: 0xAB }
    }
}

/// Runs the load generator against `model` built as `build` and reports the
/// mean response time.
pub fn benchmark_server(
    model: ServerModel,
    build: Build,
    config: LoadConfig,
) -> ResponseTimeReport {
    let module = model.module();
    let mut machine: Machine = build_machine(&module, build, config.seed);
    let mut parent = machine.spawn();
    let mut rng = SplitMix64::new(config.seed);

    let mut total_cycles = 0u64;
    let mut worker = machine.fork(&mut parent);
    let mut served_by_worker = 0u64;
    for _ in 0..config.requests {
        // Request bodies vary in size like real GETs do.
        let len = 16 + rng.next_below(64) as usize;
        let payload = vec![b'G'; len];

        if model.forks_per_request() {
            // Prefork: a worker serves `concurrency` requests then is
            // replaced, so fork cost is amortised the same way Apache does.
            if served_by_worker >= config.concurrency {
                worker = machine.fork(&mut parent);
                served_by_worker = 0;
            }
        }
        worker.set_input(payload);
        let outcome = machine
            .run_function(&mut worker, "handle_request")
            .expect("handle_request exists in server modules");
        assert!(outcome.exit.is_normal(), "request must not crash: {:?}", outcome.exit);
        total_cycles += outcome.cycles;
        served_by_worker += 1;
    }

    let mean_cycles = total_cycles as f64 / config.requests as f64;
    ResponseTimeReport {
        server: model.name(),
        build: build.label(),
        requests: config.requests,
        mean_ms: mean_cycles / CYCLES_PER_MS,
        mean_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_core::scheme::SchemeKind;

    #[test]
    fn both_server_modules_are_valid() {
        for model in [ServerModel::ApacheLike, ServerModel::NginxLike] {
            assert!(model.module().validate().is_ok(), "{}", model.name());
        }
    }

    #[test]
    fn apache_like_requests_are_slower_than_nginx_like() {
        let cfg = LoadConfig { requests: 30, ..LoadConfig::default() };
        let apache = benchmark_server(ServerModel::ApacheLike, Build::Native, cfg);
        let nginx = benchmark_server(ServerModel::NginxLike, Build::Native, cfg);
        assert!(apache.mean_ms > 5.0 * nginx.mean_ms, "{} vs {}", apache.mean_ms, nginx.mean_ms);
    }

    #[test]
    fn pssp_overhead_on_servers_is_negligible() {
        // Table III: the per-request difference between native and P-SSP is
        // in the noise (well under 1 %).
        let cfg = LoadConfig { requests: 40, ..LoadConfig::default() };
        for model in [ServerModel::ApacheLike, ServerModel::NginxLike] {
            let native = benchmark_server(model, Build::Native, cfg);
            let pssp = benchmark_server(model, Build::Compiler(SchemeKind::Pssp), cfg);
            let overhead = (pssp.mean_cycles - native.mean_cycles) / native.mean_cycles * 100.0;
            assert!(overhead >= 0.0, "{}: {overhead}", model.name());
            assert!(overhead < 1.0, "{}: overhead {overhead}% too large", model.name());
        }
    }

    #[test]
    fn apache_like_mean_is_in_the_tens_of_milliseconds() {
        let cfg = LoadConfig { requests: 20, ..LoadConfig::default() };
        let report = benchmark_server(ServerModel::ApacheLike, Build::Native, cfg);
        assert!(report.mean_ms > 10.0 && report.mean_ms < 100.0, "{}", report.mean_ms);
    }

    #[test]
    fn report_record_is_self_describing() {
        use polycanary_core::record::Value;

        let cfg = LoadConfig { requests: 5, ..LoadConfig::default() };
        let rec = benchmark_server(ServerModel::NginxLike, Build::Native, cfg).record();
        assert_eq!(rec.get("server"), Some(&Value::Str("Nginx".into())));
        assert_eq!(rec.get("requests"), Some(&Value::UInt(5)));
        assert!(rec.to_json().contains("\"mean_ms\":"));
    }

    #[test]
    fn report_carries_request_count_and_build_label() {
        let cfg = LoadConfig { requests: 10, ..LoadConfig::default() };
        let report = benchmark_server(ServerModel::NginxLike, Build::Native, cfg);
        assert_eq!(report.requests, 10);
        assert_eq!(report.build, "native");
        assert_eq!(report.server, "Nginx");
    }
}
