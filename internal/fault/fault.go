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

// MaxNS caps every *_ns field of a plan (at_ns, delay_ns, jitter_ns,
// retry_ns, timeout_ns, max_backoff_ns) at one hour of simulated time.
// sim.Time counts picoseconds in an int64, about 2,562 hours, so at the cap
// an event time, a packet's delay plus jitter, a retransmission timeout and
// the 64 re-read penalties one disk operation may pay each stay far inside
// it; past about 2,562 hours, nanoseconds scaled to picoseconds wrap
// negative.
const MaxNS = 3_600_000_000_000

// MaxBackoff caps reliability.backoff, so that a retransmission timeout of
// MaxNS multiplied by the backoff still fits in sim.Time.
const MaxBackoff = 1000

// Load reads a plan file and parses it.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault plan: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("fault plan %s: %w", path, err)
	}
	return p, nil
}

// Parse decodes a JSON plan and validates it.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
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
		if err := ns("delay_ns", r.DelayNS); err != nil {
			return fmt.Errorf("links[%d]: %w", i, err)
		}
		if err := ns("jitter_ns", r.JitterNS); err != nil {
			return fmt.Errorf("links[%d]: %w", i, err)
		}
	}
	for i, r := range p.Disks {
		if err := prob("fail", r.Fail); err != nil {
			return fmt.Errorf("disks[%d]: %w", i, err)
		}
		if err := ns("retry_ns", r.RetryNS); err != nil {
			return fmt.Errorf("disks[%d]: %w", i, err)
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
		if err := ns("at_ns", e.AtNS); err != nil {
			return fmt.Errorf("events[%d]: %w", i, err)
		}
	}
	if r := p.Reliability; r != nil {
		if err := ns("timeout_ns", r.TimeoutNS); err != nil {
			return fmt.Errorf("reliability: %w", err)
		}
		if err := ns("max_backoff_ns", r.MaxBackoffNS); err != nil {
			return fmt.Errorf("reliability: %w", err)
		}
		if r.Backoff > MaxBackoff {
			return fmt.Errorf("reliability: backoff=%v above %d", r.Backoff, MaxBackoff)
		}
	}
	return nil
}

// ns checks a nanosecond field against [0, MaxNS].
func ns(name string, v int64) error {
	if v < 0 || v > MaxNS {
		return fmt.Errorf("%s=%d outside [0,%d]", name, v, int64(MaxNS))
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
