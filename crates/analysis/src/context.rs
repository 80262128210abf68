//! Study context: the generated world plus the measurement configuration —
//! everything an experiment driver needs.

use crate::crawl::RetryPolicy;
use bannerclick::BannerClick;
use httpsim::{FaultConfig, FaultPlan, Network};
use std::sync::Arc;
use webgen::{Population, PopulationConfig};

/// The assembled study: synthetic web + network + detection tool.
pub struct Study {
    /// Ground-truth population (used only for the verification/oracle
    /// steps that were manual in the paper).
    pub population: Arc<Population>,
    /// The simulated Internet, with every server installed.
    pub net: Network,
    /// The detection pipeline configuration.
    pub tool: BannerClick,
    /// Parallel crawl workers.
    pub workers: usize,
    /// Retry/backoff/breaker behaviour for crawls.
    pub retry: RetryPolicy,
    /// The fault plan wrapped around every site origin, when chaos is on.
    /// `None` means the network is perfectly reliable (and the report
    /// carries no failure section, keeping fault-free output byte-stable).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Study {
    /// Build a study over a freshly generated population, on a reliable
    /// network.
    pub fn new(config: PopulationConfig) -> Self {
        Self::with_fault_config(config, None)
    }

    /// Build a study with an optional deterministic fault plan injected
    /// between the crawler and the site origins. A `None` or no-op config
    /// (both rates zero) is exactly [`Study::new`] — same servers, same
    /// report bytes.
    pub fn with_fault_config(config: PopulationConfig, fault: Option<FaultConfig>) -> Self {
        let fault_plan = fault
            .filter(|f| !f.is_noop())
            .map(|f| Arc::new(FaultPlan::new(f)));
        let population = Arc::new(Population::generate(config));
        let net = Network::new();
        webgen::server::install_with_faults(
            Arc::clone(&population),
            &net,
            fault_plan.as_ref().map(Arc::clone),
        );
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Study {
            population,
            net,
            tool: BannerClick::new(),
            workers,
            retry: RetryPolicy::default(),
            fault_plan,
        }
    }

    /// Full paper-scale study (45,222 targets, 280 walls).
    pub fn paper() -> Self {
        Self::new(PopulationConfig::paper())
    }

    /// Reduced-scale study for tests and quick runs.
    pub fn small() -> Self {
        Self::new(PopulationConfig::small())
    }

    /// The merged crawl target list (union of all country toplists).
    pub fn targets(&self) -> Vec<String> {
        self.population.merged_targets()
    }

    /// Oracle check standing in for the paper's manual verification: is a
    /// detected domain truly a cookiewall site?
    pub fn verify_wall(&self, domain: &str) -> bool {
        self.population
            .site(domain)
            .is_some_and(|s| s.banner.is_cookiewall())
    }
}
