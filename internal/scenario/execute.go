package scenario

import (
	"fmt"
	"time"

	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
	"gonoc/internal/traffic"
)

// This file is the one place a scenario's mode picks a traffic entry
// point. The CLIs and the server differ only in the Instruments they
// pass: what a run computes is the Scenario, how it executes and who
// watches it is the Instruments.

// Report is one executed scenario's result: exactly one of the four
// mode fields is set.
type Report struct {
	Scenario string                  `json:"scenario"`
	Mode     Mode                    `json:"mode"`
	Single   *traffic.Result         `json:"single,omitempty"`
	Sweep    *traffic.SweepResult    `json:"sweep,omitempty"`
	Campaign *traffic.CampaignResult `json:"campaign,omitempty"`
	Trans    *traffic.TransResult    `json:"trans,omitempty"`
}

// Result returns the one mode field that is set, as the value the CLIs
// print with -json and the server stores.
func (r *Report) Result() any {
	switch {
	case r.Single != nil:
		return r.Single
	case r.Sweep != nil:
		return r.Sweep
	case r.Campaign != nil:
		return r.Campaign
	default:
		return r.Trans
	}
}

// Instruments is how one execution runs and who observes it. Every
// field is optional and passive — seeded results are byte-identical
// whatever is attached (TestMetricsPassive) — except Wall, which adds
// the wall-clock self-profile to the result. A nil *Instruments runs
// the scenario bare.
type Instruments struct {
	// Probe observes single, sweep and trans runs (sweep points run
	// serially, so one probe sees the whole curve). Campaigns ignore it:
	// a probe belongs to one kernel, so campaign points get their own
	// monitors instead (HeatmapBucket).
	Probe obs.Probe
	// Metrics is the live registry packet runs publish into.
	Metrics *metrics.Registry
	// Prof receives the simulator's self-profiling samples.
	Prof *metrics.SimProfile
	// Progress tracks live point counters; single and trans runs count
	// as one point.
	Progress *metrics.Progress
	// OnPoint is called as each point completes, in every mode (single
	// and trans runs are one point). Campaign points arrive serialized,
	// in completion order.
	OnPoint func(traffic.PointDone)
	// Wall adds the wall-clock self-profile (the results' "wall"
	// blocks), the one nondeterministic part of a result.
	Wall bool
	// HeatmapBucket, when positive, gives every campaign point its own
	// congestion heatmap with that bucket width in cycles.
	HeatmapBucket int64
}

// packet attaches the instruments to a packet-rig config.
func (in *Instruments) packet(cfg *traffic.Config) {
	cfg.Probe, cfg.Metrics, cfg.Prof = in.Probe, in.Metrics, in.Prof
	cfg.CollectWall = in.Wall
}

// point runs a one-simulation mode as a one-point run, reporting it to
// Progress and OnPoint the way sweep points are reported.
func (in *Instruments) point(pd traffic.PointDone, run func()) {
	in.Progress.SetTotal(1)
	in.Progress.PointStart()
	start := time.Now()
	run()
	pd.Done, pd.Total = 1, 1
	pd.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	in.pointDone(pd)
}

func (in *Instruments) pointDone(pd traffic.PointDone) {
	in.Progress.PointDone(pd.Label, pd.WallMS)
	if in.OnPoint != nil {
		in.OnPoint(pd)
	}
}

// Execute validates, lowers, and runs the scenario with the given
// instruments (nil for none).
func Execute(s *Scenario, in *Instruments) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if in == nil {
		in = &Instruments{}
	}
	rep := &Report{Scenario: s.Name, Mode: s.Mode()}
	switch rep.Mode {
	case ModeTrans:
		tc, err := s.TransConfig()
		if err != nil {
			return nil, err
		}
		tc.Probe, tc.Prof, tc.CollectWall = in.Probe, in.Prof, in.Wall
		rate := s.transRate()
		label := "trans"
		if rate > 0 {
			label = fmt.Sprintf("trans@%g", rate)
		}
		rep.Trans = new(traffic.TransResult)
		in.point(traffic.PointDone{Label: label, Seed: tc.Seed, Offered: rate}, func() {
			*rep.Trans = traffic.RunTrans(tc)
		})
	case ModeCampaign:
		cc, err := s.CampaignConfig()
		if err != nil {
			return nil, err
		}
		in.packet(&cc.Base)
		cc.HeatmapBuckets, cc.OnPoint, cc.Progress = in.HeatmapBucket, in.OnPoint, in.Progress
		res := traffic.Campaign(cc)
		rep.Campaign = &res
	case ModeSweep:
		cfg, err := s.PacketConfig()
		if err != nil {
			return nil, err
		}
		in.packet(&cfg)
		rates := s.Measure.SweepRates
		in.Progress.SetTotal(len(rates))
		res := traffic.SweepProgress(cfg, rates, func(pd traffic.PointDone) {
			in.Progress.PointStart()
			in.pointDone(pd)
		})
		rep.Sweep = &res
	default:
		cfg, err := s.PacketConfig()
		if err != nil {
			return nil, err
		}
		in.packet(&cfg)
		rep.Single = new(traffic.Result)
		pd := traffic.PointDone{Label: fmt.Sprintf("%s/%s@%g", cfg.Topology, cfg.Pattern, cfg.Rate),
			Seed: cfg.Seed, Offered: cfg.Rate}
		in.point(pd, func() { *rep.Single = traffic.Run(cfg) })
	}
	return rep, nil
}

// transRate is the per-master rate a soc workload drives uniformly (the
// -trans flag path's single -rate), or 0 when its masters differ.
func (s *Scenario) transRate() float64 {
	rate := s.Workload.Masters[0].Rate
	for _, m := range s.Workload.Masters[1:] {
		if m.Rate != rate {
			return 0
		}
	}
	return rate
}
