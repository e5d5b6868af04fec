// Package fault is the deterministic fault-injection subsystem: a
// schedule-driven plan (seeded splitmix PRNG for probabilistic faults,
// explicit at-times for discrete events) that can drop, corrupt or delay
// packets on any san.Link, flap links and switch ports, crash and restart an
// active switch's handler plane, and fail disk operations — paired with the
// accounting that proves the reliability mechanisms recovered every injected
// fault. Nothing in this package runs unless a plan is armed, so the
// zero-fault configuration stays byte-identical to the lossless paper model.
// See RELIABILITY.md for the plan schema and determinism rules.
package fault

import (
	"encoding/json"
	"fmt"
	"os"

	"activesan/internal/san"
	"activesan/internal/sim"
)

// Plan is a complete fault schedule, loadable from JSON.
type Plan struct {
	// Seed initializes the plan's PRNG; zero means an arbitrary fixed
	// default so a seedless plan is still deterministic.
	Seed uint64 `json:"seed,omitempty"`
	// Links are probabilistic per-packet rules; the first rule whose Match
	// is a substring of a link's name governs that link.
	Links []LinkRule `json:"links,omitempty"`
	// Disks are probabilistic media-error rules, matched on store names.
	Disks []DiskRule `json:"disks,omitempty"`
	// Events are discrete state changes at explicit simulated times.
	Events []Event `json:"events,omitempty"`
	// Reliability tunes (or disables) the retransmission layer that is
	// armed automatically when the plan can lose packets.
	Reliability *Reliability `json:"reliability,omitempty"`
}

// LinkRule injects per-packet faults on matching links.
type LinkRule struct {
	// Match selects links by substring of their name ("h0.up", "trunk",
	// ...); empty matches every link.
	Match string `json:"match,omitempty"`
	// Drop and Corrupt are per-packet probabilities in [0,1].
	Drop    float64 `json:"drop,omitempty"`
	Corrupt float64 `json:"corrupt,omitempty"`
	// DelayNS adds fixed latency, JitterNS a uniform random extra, to
	// packets selected by DelayProb (default: all, when a delay is set).
	DelayNS   int64   `json:"delay_ns,omitempty"`
	JitterNS  int64   `json:"jitter_ns,omitempty"`
	DelayProb float64 `json:"delay_prob,omitempty"`
}

// DiskRule injects media errors on matching storage nodes; each failed
// attempt costs a re-read penalty (default: one seek + rotation).
type DiskRule struct {
	Match   string  `json:"match,omitempty"`
	Fail    float64 `json:"fail"`
	RetryNS int64   `json:"retry_ns,omitempty"`
}

// Event kinds.
const (
	LinkDown       = "link_down"
	LinkUp         = "link_up"
	PortDown       = "port_down"
	PortUp         = "port_up"
	HandlerCrash   = "handler_crash"
	HandlerRestart = "handler_restart"
)

// Event is one scheduled state change.
type Event struct {
	AtNS int64  `json:"at_ns"`
	Kind string `json:"kind"`
	// Link selects links by name substring, for link_down / link_up.
	Link string `json:"link,omitempty"`
	// Switch indexes cluster.Switches, for port and handler events; Port
	// selects the port for port_down / port_up.
	Switch int `json:"switch,omitempty"`
	Port   int `json:"port,omitempty"`
}

// Reliability tunes the retransmission layer (see san.RetxConfig).
type Reliability struct {
	TimeoutNS    int64   `json:"timeout_ns,omitempty"`
	Backoff      float64 `json:"backoff,omitempty"`
	MaxBackoffNS int64   `json:"max_backoff_ns,omitempty"`
	MaxRetries   int     `json:"max_retries,omitempty"`
	// Disable leaves the plan's losses unrecovered — for measuring raw
	// damage rather than recovery.
	Disable bool `json:"disable,omitempty"`
}

// Load reads and validates a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault plan: %w", err)
	}
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("fault plan %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("fault plan %s: %w", path, err)
	}
	return &p, nil
}

// Validate checks ranges and event kinds; cluster-dependent references
// (switch indexes, link names) are checked when the plan is armed.
func (p *Plan) Validate() error {
	for i, r := range p.Links {
		if err := prob("drop", r.Drop); err != nil {
			return fmt.Errorf("links[%d]: %w", i, err)
		}
		if err := prob("corrupt", r.Corrupt); err != nil {
			return fmt.Errorf("links[%d]: %w", i, err)
		}
		if err := prob("delay_prob", r.DelayProb); err != nil {
			return fmt.Errorf("links[%d]: %w", i, err)
		}
		if r.DelayNS < 0 || r.JitterNS < 0 {
			return fmt.Errorf("links[%d]: negative delay", i)
		}
	}
	for i, r := range p.Disks {
		if err := prob("fail", r.Fail); err != nil {
			return fmt.Errorf("disks[%d]: %w", i, err)
		}
		if r.RetryNS < 0 {
			return fmt.Errorf("disks[%d]: negative retry_ns", i)
		}
	}
	for i, e := range p.Events {
		switch e.Kind {
		case LinkDown, LinkUp:
			if e.Link == "" {
				return fmt.Errorf("events[%d]: %s needs a link name", i, e.Kind)
			}
		case PortDown, PortUp, HandlerCrash, HandlerRestart:
			// Switch/Port bounds are checked against the cluster at Arm.
		default:
			return fmt.Errorf("events[%d]: unknown kind %q (want %s|%s|%s|%s|%s|%s)",
				i, e.Kind, LinkDown, LinkUp, PortDown, PortUp, HandlerCrash, HandlerRestart)
		}
		if e.AtNS < 0 {
			return fmt.Errorf("events[%d]: negative at_ns", i)
		}
	}
	return nil
}

func prob(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("%s=%v outside [0,1]", name, v)
	}
	return nil
}

// needsRetx reports whether the plan can lose packets, which arms the
// retransmission layer unless the plan disables it.
func (p *Plan) needsRetx() bool {
	if p.Reliability != nil && p.Reliability.Disable {
		return false
	}
	for _, r := range p.Links {
		if r.Drop > 0 || r.Corrupt > 0 {
			return true
		}
	}
	for _, e := range p.Events {
		if e.Kind == LinkDown || e.Kind == PortDown {
			return true
		}
	}
	return false
}

// retxConfig builds the san.RetxConfig for this plan.
func (p *Plan) retxConfig() san.RetxConfig {
	cfg := san.DefaultRetxConfig()
	r := p.Reliability
	if r == nil {
		return cfg
	}
	if r.TimeoutNS > 0 {
		cfg.Timeout = sim.Time(r.TimeoutNS) * sim.Nanosecond
	}
	if r.Backoff > 1 {
		cfg.Backoff = r.Backoff
	}
	if r.MaxBackoffNS > 0 {
		cfg.MaxBackoff = sim.Time(r.MaxBackoffNS) * sim.Nanosecond
	}
	if r.MaxRetries > 0 {
		cfg.MaxRetries = r.MaxRetries
	}
	return cfg
}
