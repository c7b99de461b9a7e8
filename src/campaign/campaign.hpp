#pragma once
//! \file campaign.hpp
//! Umbrella header for the campaign subsystem: sharded, resumable
//! measurement campaigns. Workflow:
//!
//!   1. describe the plan once      — CampaignSpec (spec.hpp), saved to a file;
//!   2. run shards anywhere         — run_shard / LocalShardRunner (runner.hpp),
//!                                    persisted via shard_io.hpp with the
//!                                    spec's own entries as the manifest;
//!   3. merge and cluster centrally — merge_shards (merge.hpp).
//!
//! On one host, run_plan (runner.hpp) does all three: it is the one router
//! behind run_campaign, run_coordinated_campaign and the result cache's
//! tiers. Every variant draws on the RNG stream of its global index
//! (core::assignment_stream_seed, opened by core::VariantSampleSource
//! through GlobalSampleSource), which guarantees the merged result is
//! bit-identical to the single-process pipeline.

#include "campaign/merge.hpp"
#include "campaign/runner.hpp"
#include "campaign/shard_io.hpp"
#include "campaign/sharder.hpp"
#include "campaign/spec.hpp"
