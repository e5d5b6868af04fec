// Package faultsweep is the reliability experiment: it re-runs the paper's
// MPEG-filter benchmark under a sweep of injected link-loss rates and shows
// that the end-to-end retransmission layer completes every message — verified
// by checksum against the fault-free run and by the injector's accounting
// identity (injected == recovered + tolerated) — at a measurable cost in
// goodput and completion time. A second section crashes the active switch's
// handler plane mid-stream and shows the host-side fallback finishing the
// workload locally, with the slowdown reported. The paper's switches assume
// a lossless fabric; this extension quantifies what its offloading model
// costs when that assumption is relaxed.
package faultsweep

import (
	"fmt"

	"activesan/internal/apps"
	"activesan/internal/apps/mpeg"
	"activesan/internal/fault"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// baseSeed pins every sweep point's PRNG stream; point i draws from
// baseSeed+i so the loss pattern differs per rate but never per invocation.
const baseSeed = 0xFA017

// LossRates is the swept per-packet drop probability, applied to every link.
var LossRates = []float64{0, 0.001, 0.005, 0.01}

// PlanFor builds the sweep point's fault plan; nil for the fault-free
// baseline. The middle point also adds small random delays and disk media
// errors, so one golden run exercises the tolerated-fault and disk-retry
// paths alongside retransmission.
func PlanFor(i int, rate float64) *fault.Plan {
	if rate == 0 {
		return nil
	}
	p := &fault.Plan{
		Seed:  baseSeed + uint64(i),
		Links: []fault.LinkRule{{Drop: rate}},
	}
	if i == 2 {
		p.Links[0].DelayNS = 2000
		p.Links[0].JitterNS = 2000
		p.Links[0].DelayProb = 0.02
		// High per-attempt rate: small scaled runs only issue a handful of
		// disk reads, and the golden should exercise the retry path.
		p.Disks = []fault.DiskRule{{Fail: 0.3}}
	}
	return p
}

// withPlan returns prm with plan armed in place of prm.Env's plan; a nil
// plan leaves prm as it is.
func withPlan(prm mpeg.Params, plan *fault.Plan) mpeg.Params {
	if plan != nil {
		prm.Env.Faults, prm.Env.FaultSeed = plan, 0
	}
	return prm
}

// RunAll executes the loss sweep plus the handler-crash demonstration, all
// on one generated stream. Each point arms its own plan; the fault-free
// baseline and the active reference keep prm.Env's. The loss points and
// the active reference run through prm.Env.Runs; the crash run needs the
// reference's time, so it starts after them.
func RunAll(prm mpeg.Params) *stats.Result {
	res := &stats.Result{
		ID:    "faultsweep",
		Title: "Reliability under injected faults: MPEG filter goodput and completion vs link loss; handler-crash fallback",
	}
	note := func(format string, args ...any) {
		res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
	}
	stream := mpeg.BuildStream(prm)

	active := len(LossRates) // index of the active reference run
	runs := make([]stats.Run, active+1)
	injs := make([]*fault.Injector, active)
	prm.Env.Runs(len(runs), func(i int) string {
		if i == active {
			return "faultsweep active"
		}
		return fmt.Sprintf("faultsweep loss=%.1f%%", LossRates[i]*100)
	}, func(i int) {
		if i == active {
			runs[i], _ = mpeg.RunFaulted(apps.Active, prm, stream)
			return
		}
		runs[i], injs[i] = mpeg.RunFaulted(apps.NormalPref, withPlan(prm, PlanFor(i, LossRates[i])), stream)
	})

	var lossPct, goodput, completionMs []float64
	baseChecksum := ""
	for i, rate := range LossRates {
		run, inj := runs[i], injs[i]
		run.Config = fmt.Sprintf("loss=%.1f%%", rate*100)
		checksum, _ := run.Extra["checksum"].(string)
		if i == 0 {
			baseChecksum = checksum
		}
		verified := checksum == baseChecksum && checksum != ""
		lossPct = append(lossPct, rate*100)
		goodput = append(goodput, run.GoodputMBps(prm.FileSize))
		completionMs = append(completionMs, run.Time.Seconds()*1e3)
		if inj == nil {
			note("%s: baseline, checksum %s", run.Config, checksum)
		} else {
			c := inj.Counts()
			status := "verified"
			if !verified {
				status = "CHECKSUM MISMATCH"
			}
			balance := "balanced"
			if !inj.Balanced() {
				balance = fmt.Sprintf("UNBALANCED (pending %d)", inj.Pending())
			}
			note("%s: %s, injected %d = recovered %d + tolerated %d (%s), disk errors %d",
				run.Config, status, c.Injected, c.Recovered, c.Tolerated, balance, c.DiskErrors)
		}
		res.Runs = append(res.Runs, run)
	}
	res.Series = append(res.Series,
		stats.Series{Name: "goodput_mbps", X: lossPct, Y: goodput},
		stats.Series{Name: "completion_ms", X: lossPct, Y: completionMs},
	)

	// Handler crash: kill the active switch's handler plane a third of the
	// way through the fault-free active run, and let the host fall back to
	// the all-local program.
	activeBase := runs[active]
	res.Runs = append(res.Runs, activeBase)
	crashAt := activeBase.Time / 3
	plan := &fault.Plan{Events: []fault.Event{{
		AtNS: int64(crashAt / sim.Nanosecond),
		Kind: fault.HandlerCrash,
	}}}
	crashRun, crashInj := mpeg.RunFaulted(apps.Active, withPlan(prm, plan), stream)
	crashRun.Config = "active+crash"
	res.Runs = append(res.Runs, crashRun)
	fellBack, _ := crashRun.Extra["fallback"].(bool)
	crashChecksum, _ := crashRun.Extra["checksum"].(string)
	status := "verified"
	switch {
	case !fellBack:
		status = "NO FALLBACK"
	case crashChecksum != baseChecksum:
		status = "CHECKSUM MISMATCH"
	}
	slow := 0.0
	if activeBase.Time > 0 {
		slow = float64(crashRun.Time) / float64(activeBase.Time)
	}
	balance := "balanced"
	if crashInj != nil && !crashInj.Balanced() {
		balance = "UNBALANCED"
	}
	note("handler crash at t/3: host fallback %s, %.2fx active time (%s)", status, slow, balance)
	return res
}
