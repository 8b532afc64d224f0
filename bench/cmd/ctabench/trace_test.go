package main

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/workloads"
)

// TestTimedKernelForwardsProbedMethods checks that the wrapper keeps the
// optional methods the engine (Reset) and internal/core (RefDescriber)
// look for.
func TestTimedKernelForwardsProbedMethods(t *testing.T) {
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	var clock workClock
	var k kernel.Kernel = newTimedKernel(app, &clock, true)
	rd, ok := k.(kernel.RefDescriber)
	if !ok {
		t.Fatal("wrapped kernel does not implement kernel.RefDescriber")
	}
	if !reflect.DeepEqual(rd.ArrayRefs(), app.ArrayRefs()) {
		t.Errorf("ArrayRefs = %v, want %v", rd.ArrayRefs(), app.ArrayRefs())
	}
	agent, err := core.NewAgent(k, core.AgentConfig{Arch: arch.GTX980(), Indexing: app.Partition()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(agent.ArrayRefs(), app.ArrayRefs()) {
		t.Errorf("agent over the wrapper reports ArrayRefs %v, want %v", agent.ArrayRefs(), app.ArrayRefs())
	}
	if _, ok := kernel.Kernel(newTimedKernel(agent, &clock, false)).(interface{ Reset() }); !ok {
		t.Error("wrapped agent kernel does not implement Reset")
	}
}

// TestTimedKernelSameResult runs BSL and CLU kernels with and without the
// wrapper and requires deep-equal Results, so the traced run measures
// the same program. GTX980 binds agents dynamically through per-SM
// counters that only Reset clears, so the second CLU launch diverges
// unless the wrapper forwards Reset.
func TestTimedKernelSameResult(t *testing.T) {
	app, err := workloads.New("NW")
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.GTX980()
	cfg := engine.DefaultConfig(ar)
	var work, transform workClock

	agentCfg := core.AgentConfig{Arch: ar, Indexing: app.Partition()}
	plainCLU, err := core.NewAgent(app, agentCfg)
	if err != nil {
		t.Fatal(err)
	}
	tracedAgent, err := core.NewAgent(newTimedKernel(app, &work, true), agentCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		plain, traced kernel.Kernel
	}{
		{"BSL", app, newTimedKernel(app, &work, true)},
		{"CLU", plainCLU, newTimedKernel(tracedAgent, &transform, false)},
	} {
		want, err := engine.Run(cfg, tc.plain)
		if err != nil {
			t.Fatal(err)
		}
		for launch := 1; launch <= 2; launch++ {
			work = workClock{}
			got, err := engine.Run(cfg, tc.traced)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s launch %d: wrapped Result differs from unwrapped (cycles %d vs %d)", tc.name, launch, got.Cycles, want.Cycles)
			}
			if work.calls == 0 || work.ops == 0 || work.memops == 0 {
				t.Errorf("%s launch %d: wrapper recorded %+v", tc.name, launch, work)
			}
		}
	}
}
