//! # bh-core — the paper's contribution: BGP blackholing inference
//!
//! Implements the full methodology of Giotsas et al. (IMC 2017), §4:
//!
//! 1. **Dictionary-driven detection** ([`session`]): announcements carrying
//!    a community from the documented blackhole dictionary are candidate
//!    blackholings; shared/ambiguous communities are resolved via the AS
//!    path; IXP blackholing is detected via the route-server ASN on the
//!    path or a peer-ip inside a PeeringDB peering LAN; the blackholing
//!    *user* is the AS-hop before the provider (prepending removed), the
//!    peer-as for route-server views, or the origin for bundled
//!    detections.
//! 2. **Event tracking** ([`session`], [`events`]): per-(prefix, peer)
//!    state machines handle announcements, explicit withdrawals, and
//!    *implicit* withdrawals (re-announcement without the tag);
//!    observations are correlated across peers into prefix-level
//!    [`events::BlackholeEvent`]s; RIB-dump initialization uses start
//!    time zero; the 5-minute grouping of §9 collapses operators' ON/OFF
//!    probing into [`events::BlackholePeriod`]s.
//! 3. **Analytics** ([`analytics`], [`accumulate`]): Table 3
//!    (per-dataset visibility), Table 4 (by provider type), Fig. 4
//!    (daily adoption series), Fig. 5 (prefix-count CDFs per
//!    provider/user), Fig. 6 (per-country), Fig. 7(b) (providers per
//!    event), Fig. 7(c) (AS-distance incl. the bundling "no-path"
//!    share), Fig. 8 (durations and §9 grouped periods). Every metric
//!    is a mergeable one-pass [`accumulate::EventAccumulator`]; the
//!    batch functions are thin wrappers, and the
//!    [`accumulate::AnalyticsPipeline`] multiplexes one event stream
//!    into all of them, fed from `drain_closed_into` mid-stream.
//! 4. **Reference data** ([`refdata`]): the *public* metadata the
//!    methodology is allowed to consult (PeeringDB LANs and route
//!    servers, PeeringDB/CAIDA classification, RIR countries, collector
//!    session metadata) — never the simulator's ground truth.
//!
//! The inference runs as **streaming sessions**: a
//! [`session::SessionBuilder`] assembles an owned
//! [`session::InferenceSession`] (dictionary/reference data behind
//! `Arc`), elements arrive via `push` or from any
//! [`bh_routing::ElemSource`] — the live simulator, an in-memory slice,
//! or a constant-memory MRT archive reader — on one thread, in the
//! stream's time order.

pub mod accumulate;
pub mod analytics;
pub mod confusion;
pub mod events;
pub mod refdata;
pub mod session;

pub use accumulate::{
    AnalyticsConfig, AnalyticsPipeline, AnalyticsReport, EventAccumulator, EventCollector,
};
pub use analytics::{
    blackholed_prefixes, daily_series, distance_histogram, durations, per_country,
    prefixes_per_provider, prefixes_per_user, providers_per_event, table3, table4,
    CountryAccumulator, DailyPoint, DailySeriesAccumulator, DistanceAccumulator,
    DurationAccumulator, PrefixSetAccumulator, ProviderPrefixAccumulator,
    ProvidersPerEventAccumulator, TypeAccumulator, TypeRow, UserPrefixAccumulator,
    VisibilityAccumulator, VisibilityRow,
};
pub use confusion::{
    score_events, ConfusionAccumulator, ConfusionConfig, ConfusionReport, LabelKind, TruthLabel,
};
pub use events::{
    group_events, BlackholeEvent, BlackholePeriod, DetectionDistance, PeriodAccumulator,
    ProviderId, SequencedEvent,
};
pub use refdata::ReferenceData;
pub use session::{
    DatasetVisibility, Detection, EngineConfig, EngineStats, InferenceResult, InferenceSession,
    SessionBuilder, SessionCheckpoint, StreamSummary,
};

/// Everything a pipeline consumer needs, in one import:
/// `use bh_core::prelude::*;`.
pub mod prelude {
    pub use crate::accumulate::{
        AnalyticsConfig, AnalyticsPipeline, AnalyticsReport, EventAccumulator, EventCollector,
    };
    pub use crate::analytics::{
        blackholed_prefixes, daily_series, distance_histogram, durations, per_country,
        prefixes_per_provider, prefixes_per_user, providers_per_event, table3, table4,
        CountryAccumulator, DailyPoint, DailySeriesAccumulator, DistanceAccumulator,
        DurationAccumulator, PrefixSetAccumulator, ProviderPrefixAccumulator,
        ProvidersPerEventAccumulator, TypeAccumulator, TypeRow, UserPrefixAccumulator,
        VisibilityAccumulator, VisibilityRow,
    };
    pub use crate::confusion::{
        score_events, ConfusionAccumulator, ConfusionConfig, ConfusionReport, LabelKind, TruthLabel,
    };
    pub use crate::events::{
        group_events, BlackholeEvent, BlackholePeriod, DetectionDistance, PeriodAccumulator,
        ProviderId, SequencedEvent,
    };
    pub use crate::refdata::ReferenceData;
    pub use crate::session::{
        DatasetVisibility, Detection, EngineConfig, EngineStats, InferenceResult, InferenceSession,
        SessionBuilder, SessionCheckpoint, StreamSummary,
    };
}
