//! Gateway configuration and the builder.

use crate::gateway::Gateway;
use botwall_captcha::ServingPolicy;
use botwall_core::DetectorConfig;
use botwall_instrument::InstrumentConfig;

/// Everything a [`Gateway`] is parameterized by.
///
/// Each field mirrors one stage of the paper's deployment: page
/// instrumentation (§2), sessionized detection (§3.1), policy
/// enforcement (§3.2) and CAPTCHA serving (§4.2). Enforcement runs on
/// the default [`PolicyConfig`](botwall_core::PolicyConfig) thresholds.
/// The §4.1 machine learning stage is not here: like the paper's, it
/// runs offline over completed sessions (`botwall_core::staged`).
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayConfig {
    /// Page-rewriting / probe configuration.
    pub instrument: InstrumentConfig,
    /// Detection engine configuration (session tracking inside).
    pub detector: DetectorConfig,
    /// Whether CAPTCHAs are served: offered on request
    /// ([`Gateway::offer_captcha`]) and, with
    /// [`GatewayConfig::challenge_on_throttle`], in place of a 429.
    pub captcha: ServingPolicy,
    /// Whether the policy engine gates requests at all. Off reproduces
    /// the paper's pre-deployment state: observe and classify, but
    /// never throttle or block.
    pub enforcement: bool,
    /// Serve a CAPTCHA interstitial instead of a bare 429 when a session
    /// is throttled — the paper's §4.2 incentive flow as an enforcement
    /// escape hatch: a throttled human (or misjudged client) can solve
    /// the challenge, become ground-truth human, and shed the rate
    /// limit. Ignored when the CAPTCHA policy is `Disabled`.
    pub challenge_on_throttle: bool,
    /// Seed for the gateway's deterministic RNGs (instrumentation keys,
    /// challenge generation).
    pub seed: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            instrument: InstrumentConfig::default(),
            detector: DetectorConfig::default(),
            captcha: ServingPolicy::OptionalWithIncentive,
            enforcement: true,
            challenge_on_throttle: false,
            seed: 0,
        }
    }
}

/// Builder for [`Gateway`].
///
/// # Examples
///
/// ```
/// use botwall_captcha::ServingPolicy;
/// use botwall_gateway::Gateway;
///
/// let gw = Gateway::builder()
///     .captcha(ServingPolicy::Disabled)
///     .seed(42)
///     .build();
/// assert_eq!(gw.config().seed, 42);
/// ```
#[derive(Default)]
pub struct GatewayBuilder {
    config: GatewayConfig,
}

impl GatewayBuilder {
    /// Starts from the default configuration.
    pub fn new() -> GatewayBuilder {
        GatewayBuilder::default()
    }

    /// Replaces the whole configuration at once.
    pub fn config(mut self, config: GatewayConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the instrumentation configuration.
    pub fn instrument(mut self, instrument: InstrumentConfig) -> Self {
        self.config.instrument = instrument;
        self
    }

    /// Sets the detector configuration.
    pub fn detector(mut self, detector: DetectorConfig) -> Self {
        self.config.detector = detector;
        self
    }

    /// Sets the CAPTCHA serving policy.
    pub fn captcha(mut self, captcha: ServingPolicy) -> Self {
        self.config.captcha = captcha;
        self
    }

    /// Turns policy enforcement on or off.
    pub fn enforcement(mut self, on: bool) -> Self {
        self.config.enforcement = on;
        self
    }

    /// Serves a CAPTCHA instead of a bare 429 to throttled sessions
    /// (§4.2 escape hatch; see [`GatewayConfig::challenge_on_throttle`]).
    pub fn challenge_on_throttle(mut self, on: bool) -> Self {
        self.config.challenge_on_throttle = on;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Builds the gateway.
    pub fn build(self) -> Gateway {
        Gateway::from_config(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_full_deployment() {
        let c = GatewayConfig::default();
        assert!(c.enforcement);
        assert!(c.instrument.css_probe);
        assert!(c.instrument.mouse_beacon);
        assert_eq!(c.captcha, ServingPolicy::OptionalWithIncentive);
    }

    #[test]
    fn builder_setters_land_in_config() {
        let gw = GatewayBuilder::new()
            .enforcement(false)
            .captcha(ServingPolicy::Disabled)
            .seed(9)
            .build();
        assert!(!gw.config().enforcement);
        assert_eq!(gw.config().captcha, ServingPolicy::Disabled);
        assert_eq!(gw.config().seed, 9);
    }

    #[test]
    fn config_round_trips_through_clone_and_eq() {
        let c = GatewayConfig {
            seed: 77,
            enforcement: false,
            ..GatewayConfig::default()
        };
        let back = c.clone();
        assert_eq!(c, back);
    }
}
