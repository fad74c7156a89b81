package service_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
	"time"

	"dagsched/internal/service"
	"dagsched/internal/sim"
	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

// TestScheduleWithSampledFaults drives the sampled-robustness path end
// to end: the response carries a coherent robustness block, and an
// identical request replays from the cache with the same numbers.
func TestScheduleWithSampledFaults(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1})
	inst := instanceJSON(t, testfix.Topcuoglu())
	req := service.ScheduleRequest{
		Algorithm: "HEFT",
		Instance:  inst,
		Faults:    &service.FaultsRequest{Rate: 0.5, Samples: 8, Seed: 3, Policy: "auto"},
	}
	resp, err := c.Schedule(context.Background(), req)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	rb := resp.Robustness
	if rb == nil {
		t.Fatal("response has no robustness block")
	}
	if rb.Policy != "auto" || rb.Nominal != resp.Makespan || rb.Samples != 8 {
		t.Fatalf("robustness header inconsistent: %+v (makespan %g)", rb, resp.Makespan)
	}
	if rb.CompletionRate == nil || *rb.CompletionRate < 0 || *rb.CompletionRate > 1 {
		t.Fatalf("completion rate %v out of [0,1]", rb.CompletionRate)
	}
	if rb.MaxDegradation < 1 || rb.MeanDegradation <= 0 {
		t.Fatalf("degradation stats implausible: %+v", rb)
	}
	if rb.MeanSlack < 0 || rb.MeanSlack > 1 {
		t.Fatalf("mean slack %g out of [0,1]", rb.MeanSlack)
	}

	again, err := c.Schedule(context.Background(), req)
	if err != nil {
		t.Fatalf("second Schedule: %v", err)
	}
	if !again.Cached {
		t.Fatal("identical faulted request was not served from cache")
	}
	if !reflect.DeepEqual(again.Robustness, rb) {
		t.Fatalf("cached robustness drifted: %+v vs %+v", again.Robustness, rb)
	}
}

// TestScheduleWithExplicitFaultPlan replays one concrete crash and
// checks the degradation report plus the reactive repair summary.
func TestScheduleWithExplicitFaultPlan(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1})
	inst := instanceJSON(t, testfix.Topcuoglu())
	base, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: "HEFT", Instance: inst})
	if err != nil {
		t.Fatalf("baseline Schedule: %v", err)
	}
	plan := &sim.FaultPlan{Crashes: []sim.Crash{{Proc: 0, At: base.Makespan * 0.4}}}
	resp, err := c.Schedule(context.Background(), service.ScheduleRequest{
		Algorithm: "HEFT",
		Instance:  inst,
		Faults:    &service.FaultsRequest{Plan: plan, Policy: "reschedule-suffix"},
	})
	if err != nil {
		t.Fatalf("faulted Schedule: %v", err)
	}
	rb := resp.Robustness
	if rb == nil || rb.Policy != "reschedule-suffix" {
		t.Fatalf("robustness block %+v", rb)
	}
	if rb.Samples != 0 || rb.CompletionRate != nil {
		t.Fatalf("sampled fields set without a rate: %+v", rb)
	}
	if rb.Repaired == nil {
		t.Fatal("permanent crash produced no repair summary")
	}
	if rb.Repaired.Makespan <= 0 || rb.Repaired.Stretch <= 0 {
		t.Fatalf("repair summary implausible: %+v", rb.Repaired)
	}
	if got, want := rb.Repaired.Stretch, rb.Repaired.Makespan/rb.Nominal; got != want {
		t.Fatalf("repaired stretch %g, want %g", got, want)
	}
}

// TestFaultsValidation covers the 400 surface of the faults block.
func TestFaultsValidation(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1})
	inst := instanceJSON(t, testfix.Topcuoglu())
	bad := []*service.FaultsRequest{
		{},                           // neither plan nor rate
		{Rate: 2},                    // rate out of range
		{Rate: -0.1},                 // negative rate
		{Rate: 0.5, Samples: 100000}, // samples over cap
		{Rate: 0.5, Policy: "nope"},  // unknown policy
		{Plan: &sim.FaultPlan{Crashes: []sim.Crash{{Proc: 99, At: 1}}}},          // proc out of range
		{Plan: &sim.FaultPlan{Crashes: []sim.Crash{{Proc: 0, At: 5, Until: 2}}}}, // inverted window
	}
	for i, f := range bad {
		_, err := c.Schedule(context.Background(), service.ScheduleRequest{
			Algorithm: "HEFT", Instance: inst, Faults: f,
		})
		var se *service.StatusError
		if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
			t.Errorf("faults case %d: got %v, want HTTP 400", i, err)
		}
	}
}

// TestFaultsStopAtDeadline: a sampled faults evaluation that outruns
// its request's deadline stops there, so the one worker is free for the
// next request instead of sampling on for a request already answered
// 504.
func TestFaultsStopAtDeadline(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1})
	rng := rand.New(rand.NewSource(7))
	g, err := workload.Random(workload.RandomConfig{N: 2000, Shape: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 16, CCR: 1, Beta: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, err = c.Schedule(ctx, service.ScheduleRequest{
		Algorithm: "HEFT",
		Instance:  instanceJSON(t, in),
		TimeoutMs: 500,
		Faults:    &service.FaultsRequest{Rate: 0.2, Samples: 500},
	})
	var se *service.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusGatewayTimeout {
		t.Fatalf("500 samples on 2000 tasks under a 500 ms deadline answered %v, want a 504", err)
	}
	start := time.Now()
	if _, err := c.Schedule(ctx, service.ScheduleRequest{Algorithm: "HEFT", Instance: instanceJSON(t, testfix.Topcuoglu())}); err != nil {
		t.Fatal(err)
	}
	if wait := time.Since(start); wait > 2*time.Second {
		t.Errorf("the next request waited %v for the worker", wait)
	}
}
