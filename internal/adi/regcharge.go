package adi

import (
	"slices"

	"ib12x/internal/regcache"
	"ib12x/internal/trace"
)

// chargeRegistration models exposing data[:n] to RDMA through the pin-down
// cache: the first touch of an unregistered region pays the miss charge —
// per-page pin cost plus the fixed syscall latency — on this rank's proc
// before any WR for the region posts; a covered region is free. No-op with
// the cache disabled or for synthetic (nil) payloads, whose transfers carry
// no real memory. peer names the far rank in the trace events.
func (ep *Endpoint) chargeRegistration(peer int, data []byte, n int) {
	if ep.reg == nil || data == nil || n <= 0 {
		return
	}
	out := ep.reg.Register(data, n)
	if out.Hit {
		ep.stats.RegHits++
		return
	}
	ep.stats.RegMisses++
	ep.stats.RegEvictions += int64(out.Evicted)
	if hw := ep.reg.PinnedPeak(); hw > ep.stats.RegPinnedPeak {
		ep.stats.RegPinnedPeak = hw
	}
	if out.Evicted > 0 {
		ep.trace(trace.KindRegEvict, peer, int(out.EvictedBytes), -1)
	}
	ep.trace(trace.KindRegMiss, peer, n, -1)
	ep.charge(out.Cost)
}

// RegCache exposes the endpoint's pin-down cache (nil when disabled), e.g.
// for counter blocks after a run.
func (ep *Endpoint) RegCache() *regcache.Cache { return ep.reg }

// refreshRailRates feeds each rail's current link rate — possibly chaos-
// degraded — into the channel's scheduling state before a bulk plan, as
// the per-rail scale relative to the model's raw rate. The uniform case (no
// degradation anywhere) leaves Rates empty, so healthy planning still hits
// the memoized plan cache and allocates nothing; only a degraded fabric pays
// for fresh rate-weighted plans. Rates keeps its backing array once made.
func (ep *Endpoint) refreshRailRates(c *rcChannel) {
	raw := ep.m.LinkRawRate
	rates := c.sched.Rates[:0]
	for i := range c.rails {
		if ep.railPort(i).EffectiveRate() != raw {
			rates = slices.Grow(rates, len(c.rails))
			for r := range c.rails {
				rates = append(rates, ep.railPort(r).EffectiveRate()/raw)
			}
			break
		}
	}
	c.sched.Rates = rates
}
