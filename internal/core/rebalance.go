package core

import "time"

// RebalancePolicy configures the telemetry-driven rebalancer that runs on
// the coordinator node of a DSO cluster (DESIGN.md §5g): how often it
// scans the cluster-wide heavy-hitter snapshots, what per-object load
// counts as a sustained hot spot, and how aggressively it reacts. It is
// the single policy type threaded through crucial.Options.Rebalance,
// cluster.Options.Rebalance and server.Config.Rebalance. The zero value
// disables rebalancing entirely.
//
// The rebalancer needs telemetry (the per-object trackers are its only
// load signal); with telemetry disabled an enabled policy scans nothing
// and never migrates.
type RebalancePolicy struct {
	// Enabled turns the rebalancer loop on.
	Enabled bool
	// Interval is the scan period (default 2s). Each scan fetches and
	// merges every member's per-object windowed rates.
	Interval time.Duration
	// HotRate is the windowed invocation rate (ops/s) below which an
	// object is never considered hot (default 200).
	HotRate float64
	// HotFactor is how many times the mean tracked-object rate an object
	// must sustain to count as a heavy hitter (default 4). Both gates must
	// pass: absolute rate and skew relative to the rest of the population.
	HotFactor float64
	// Sustain is how many consecutive scans an object must stay hot
	// before it is migrated (default 2) — one noisy window never moves
	// state.
	Sustain int
	// Cooldown is the per-object quarantine after a migration (default
	// 30s): the object is not reconsidered until it elapses, so placement
	// cannot flap faster than load measurements stabilize.
	Cooldown time.Duration
	// MaxDirectives bounds the directive table (default 64): past it the
	// rebalancer stops pinning new keys until old pins are released.
	MaxDirectives int
}

// DefaultRebalancePolicy returns the tested rebalancer defaults with the
// loop enabled.
func DefaultRebalancePolicy() RebalancePolicy {
	return RebalancePolicy{
		Enabled:       true,
		Interval:      2 * time.Second,
		HotRate:       200,
		HotFactor:     4,
		Sustain:       2,
		Cooldown:      30 * time.Second,
		MaxDirectives: 64,
	}
}

// Normalized fills zero fields with the defaults, leaving Enabled as set.
func (p RebalancePolicy) Normalized() RebalancePolicy {
	d := DefaultRebalancePolicy()
	if p.Interval <= 0 {
		p.Interval = d.Interval
	}
	if p.HotRate <= 0 {
		p.HotRate = d.HotRate
	}
	if p.HotFactor <= 0 {
		p.HotFactor = d.HotFactor
	}
	if p.Sustain <= 0 {
		p.Sustain = d.Sustain
	}
	if p.Cooldown <= 0 {
		p.Cooldown = d.Cooldown
	}
	if p.MaxDirectives <= 0 {
		p.MaxDirectives = d.MaxDirectives
	}
	return p
}
