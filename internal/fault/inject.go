package fault

import (
	"strings"
	"sync"

	"activesan/internal/san"
	"activesan/internal/sim"
)

// Counts is the injector's ledger. The reliability acceptance identity is
//
//	Injected == Recovered + Tolerated   (and Pending() == 0)
//
// on a cleanly completed run: every fault was either repaired by a
// retransmission/reroute/retry (Recovered) or absorbed without needing the
// lost packet again (Tolerated — delays, crashes handled by fallback,
// losses of packets that were already acknowledged).
type Counts struct {
	Injected   int64 // total faults injected (drops+corrupts+delays+crashes+disk errors)
	Dropped    int64 // packets dropped on links (including down links)
	Corrupted  int64 // packets delivered with the corrupt bit set
	Delayed    int64 // packets delivered late
	DiskErrors int64 // failed disk attempts
	Crashes    int64 // handler-plane crashes injected
	LinkEvents int64 // link/port up/down transitions applied
	Recovered  int64 // faults repaired by a later clean delivery or disk retry
	Tolerated  int64 // faults absorbed without re-delivery
	Exempt     int64 // losses withheld from unprotectable packets (see below)
}

// identity names one lost packet so its eventual clean re-delivery can be
// matched to the original fault. Seq+type+flow+dst is unique per packet
// within a run: flows are never reused across messages.
type identity struct {
	dst  san.NodeID
	flow int64
	seq  int
	typ  san.Type
}

// flowKey names a (receiver, flow, type) triple — the unit the reliability
// layer acknowledges.
type flowKey struct {
	dst  san.NodeID
	flow int64
	typ  san.Type
}

type diskKey struct {
	node string
	file string
	off  int64
}

// linkRule is a LinkRule compiled against one concrete link.
type linkRule struct {
	drop, corrupt float64
	delay, jitter sim.Time
	delayProb     float64
}

// Injector implements san.LinkInjector and iodev.DiskInjector for one
// cluster. It draws every probabilistic decision from a single seeded PRNG;
// within one engine, link transmissions are serialized, so the draw sequence
// — and therefore the whole run — is reproducible at a fixed partition
// count. On a partitioned cluster the injector is shared by every
// partition's engine, so mu serializes the ledger and PRNG; scheduled
// (flap/crash) plans stay deterministic at any partition count, while
// probabilistic rules are reproducible per partition count (the draw
// interleaving across engines is barrier-schedule dependent). See
// PERFORMANCE.md.
type Injector struct {
	mu    sync.Mutex
	rng   *sim.Rand
	rules map[*san.Link]*linkRule // nil value: observe-only link
	disks map[string]*DiskRule    // by store name

	counts Counts
	// pending maps a lost packet to the number of outstanding losses of
	// that exact identity; a clean pass of the identity on any armed link
	// recovers them.
	pending map[identity]int64
	// resolved records flows the sender has seen fully acknowledged.
	// Losses on a resolved flow (a spurious retransmission, a duplicate
	// re-ACK) can never be re-delivered — nobody will send them again — so
	// they count as tolerated immediately instead of pending forever.
	resolved map[flowKey]bool
	// pendingDisk counts outstanding failed attempts per disk operation;
	// the retry that succeeds recovers them.
	pendingDisk map[diskKey]int64
	// protocol, when non-nil, is the set of nodes covered by end-to-end
	// retransmission (hosts and stores). Probabilistic loss is withheld
	// from packets whose source or destination lies outside it — a switch's
	// handler plane neither retransmits what it sends nor acknowledges what
	// it receives (the offload protocols reuse one flow id per chunk, so
	// receiver-side dedup is ambiguous), and a single loss on those paths
	// would hang the stream forever. Withheld losses are counted as Exempt
	// so a plan that never fires is visible. Nil when the plan runs without
	// reliability: raw-damage mode injects everywhere.
	protocol map[san.NodeID]bool
}

func newInjector(seed uint64) *Injector {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 // zero seeds get a fixed arbitrary constant
	}
	return &Injector{
		rng:         sim.NewRand(seed),
		rules:       map[*san.Link]*linkRule{},
		disks:       map[string]*DiskRule{},
		pending:     map[identity]int64{},
		resolved:    map[flowKey]bool{},
		pendingDisk: map[diskKey]int64{},
	}
}

// Counts returns a copy of the ledger.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// Pending reports outstanding unrecovered packet losses plus disk errors.
func (in *Injector) Pending() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.pendingLocked()
}

func (in *Injector) pendingLocked() int64 {
	var n int64
	for _, c := range in.pending {
		n += c
	}
	for _, c := range in.pendingDisk {
		n += c
	}
	return n
}

// Balanced reports whether every injected fault has been recovered or
// tolerated — the acceptance identity for a cleanly completed run.
func (in *Injector) Balanced() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts.Injected == in.counts.Recovered+in.counts.Tolerated && in.pendingLocked() == 0
}

// noteLinkEvent and noteCrash book scheduled-event transitions; the event
// closures run on their target component's engine, so they take the lock.
func (in *Injector) noteLinkEvent() {
	in.mu.Lock()
	in.counts.LinkEvents++
	in.mu.Unlock()
}

func (in *Injector) noteCrash() {
	in.mu.Lock()
	in.counts.Injected++
	in.counts.Crashes++
	in.counts.Tolerated++
	in.mu.Unlock()
}

// OnTransmit implements san.LinkInjector: it votes on every packet crossing
// an armed link. Down links drop everything; otherwise the link's compiled
// rule draws drop, then corrupt, then delay. Clean passes double as the
// recovery observer: a pending identity passing cleanly means the
// retransmission (or reroute) worked.
func (in *Injector) OnTransmit(l *san.Link, pkt *san.Packet) (san.FaultVerdict, sim.Time) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if l.Down() {
		in.noteLoss(pkt)
		in.counts.Dropped++
		return san.FaultDrop, 0
	}
	r := in.rules[l]
	if r != nil {
		lossOK := in.protocol == nil || (in.protocol[pkt.Hdr.Src] && in.protocol[pkt.Hdr.Dst])
		if r.drop > 0 && in.rng.Float64() < r.drop {
			if !lossOK {
				in.counts.Exempt++
			} else {
				in.noteLoss(pkt)
				in.counts.Dropped++
				return san.FaultDrop, 0
			}
		}
		if r.corrupt > 0 && in.rng.Float64() < r.corrupt {
			if !lossOK {
				in.counts.Exempt++
			} else {
				in.noteLoss(pkt)
				in.counts.Corrupted++
				return san.FaultCorrupt, 0
			}
		}
		if r.delay > 0 || r.jitter > 0 {
			if r.delayProb >= 1 || in.rng.Float64() < r.delayProb {
				d := r.delay
				if r.jitter > 0 {
					d += sim.Time(in.rng.Int63n(int64(r.jitter)))
				}
				if d > 0 {
					// A late packet still arrives intact: injected and
					// tolerated in the same breath.
					in.counts.Injected++
					in.counts.Delayed++
					in.counts.Tolerated++
					return san.FaultPass, d
				}
			}
		}
	}
	// Clean pass: if this exact packet was lost before, the re-delivery
	// recovers it.
	id := identity{pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Seq, pkt.Hdr.Type}
	if n := in.pending[id]; n > 0 {
		in.counts.Recovered += n
		delete(in.pending, id)
	}
	return san.FaultPass, 0
}

// noteLoss books a drop or corruption. Losses that the protocol can never
// re-deliver — ACK/NAK packets (recovered by timeout + duplicate re-ACK)
// and packets on already-resolved flows — are tolerated immediately;
// everything else goes pending until a clean pass of the same identity.
func (in *Injector) noteLoss(pkt *san.Packet) {
	in.counts.Injected++
	if pkt.Hdr.Type == san.Ack {
		in.counts.Tolerated++
		return
	}
	if in.resolved[flowKey{pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Type}] {
		in.counts.Tolerated++
		return
	}
	in.pending[identity{pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Seq, pkt.Hdr.Type}]++
}

// resolveFlow is wired to every TxTracker's resolve callback: the sender has
// seen the flow fully acknowledged, so losses of its packets still pending
// (a retransmission that was itself dropped after the ACK raced past it)
// will never pass again and are tolerated.
func (in *Injector) resolveFlow(dst san.NodeID, flow int64, of san.Type) {
	in.mu.Lock()
	defer in.mu.Unlock()
	fk := flowKey{dst, flow, of}
	in.resolved[fk] = true
	for id, n := range in.pending {
		if id.dst == dst && id.flow == flow && id.typ == of {
			in.counts.Tolerated += n
			delete(in.pending, id)
		}
	}
}

// OnDiskOp implements iodev.DiskInjector: true fails the attempt. The
// storage node retries in place, so the first clean attempt on the same
// operation recovers every failed one before it.
func (in *Injector) OnDiskOp(node, file string, off, n int64) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.disks[node]
	if r != nil && r.Fail > 0 && in.rng.Float64() < r.Fail {
		in.counts.Injected++
		in.counts.DiskErrors++
		in.pendingDisk[diskKey{node, file, off}]++
		return true
	}
	k := diskKey{node, file, off}
	if c := in.pendingDisk[k]; c > 0 {
		in.counts.Recovered += c
		delete(in.pendingDisk, k)
	}
	return false
}

// addMetrics publishes the ledger into a metrics snapshot; installed as the
// cluster's ExtraMetrics hook, so these keys exist only on faulted runs.
func (in *Injector) addMetrics(add func(name string, v float64)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	c := in.counts
	add("fault/injected", float64(c.Injected))
	add("fault/dropped", float64(c.Dropped))
	add("fault/corrupted", float64(c.Corrupted))
	add("fault/delayed", float64(c.Delayed))
	add("fault/disk_errors", float64(c.DiskErrors))
	add("fault/crashes", float64(c.Crashes))
	add("fault/link_events", float64(c.LinkEvents))
	add("fault/tolerated", float64(c.Tolerated))
	add("fault/exempted", float64(c.Exempt))
	add("fault/pending", float64(in.pendingLocked()))
	add("retry/recovered", float64(c.Recovered))
}

// compile resolves a plan's link rules against one concrete link by
// first-match on name substring; nil means observe-only.
func compileRule(p *Plan, name string) *linkRule {
	for i := range p.Links {
		r := &p.Links[i]
		if r.Match != "" && !strings.Contains(name, r.Match) {
			continue
		}
		c := &linkRule{
			drop:      r.Drop,
			corrupt:   r.Corrupt,
			delay:     sim.Time(r.DelayNS) * sim.Nanosecond,
			jitter:    sim.Time(r.JitterNS) * sim.Nanosecond,
			delayProb: r.DelayProb,
		}
		if (c.delay > 0 || c.jitter > 0) && c.delayProb == 0 {
			c.delayProb = 1
		}
		return c
	}
	return nil
}
