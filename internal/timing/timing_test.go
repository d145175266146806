package timing

import (
	"math"
	"testing"
)

func TestSlotTimeMatchesStandard(t *testing.T) {
	if SlotTime != 35.84 {
		t.Fatalf("SlotTime = %v, want 35.84 (IEEE 1901 contention slot)", SlotTime)
	}
	if PriorityResolutionSlot != SlotTime {
		t.Fatalf("PRS slot = %v, want equal to contention slot", PriorityResolutionSlot)
	}
}

func TestPaperDurations(t *testing.T) {
	// The constants must reproduce the paper's example invocation:
	// sim_1901(2, 5e8, 2920.64, 2542.64, 2050, …).
	if DefaultCollisionDuration != 2920.64 {
		t.Errorf("Tc = %v, want 2920.64", DefaultCollisionDuration)
	}
	if DefaultSuccessDuration != 2542.64 {
		t.Errorf("Ts = %v, want 2542.64", DefaultSuccessDuration)
	}
	if DefaultFrameDuration != 2050 {
		t.Errorf("frame_length = %v, want 2050", DefaultFrameDuration)
	}
}

func TestDefaultOverheadsReproduceTs(t *testing.T) {
	o := DefaultOverheads()
	if err := o.Validate(); err != nil {
		t.Fatalf("DefaultOverheads invalid: %v", err)
	}
	ts := o.PRS + o.Preamble + DefaultFrameDuration + o.RIFS + o.Ack + o.CIFS
	if math.Abs(ts-DefaultSuccessDuration) > 1e-9 {
		t.Errorf("Ts(2050) = %v, want %v", ts, DefaultSuccessDuration)
	}
}

func TestOverheadsCollisionLongerThanSuccess(t *testing.T) {
	tc := DefaultOverheads().CollisionDuration(DefaultFrameDuration)
	if tc <= DefaultSuccessDuration {
		t.Errorf("collision duration %v not longer than success %v (EIFS must dominate RIFS+ACK)", tc, DefaultSuccessDuration)
	}
}

func TestOverheadsValidateRejectsNegative(t *testing.T) {
	o := DefaultOverheads()
	o.RIFS = -1
	if err := o.Validate(); err == nil {
		t.Error("Validate accepted negative RIFS")
	}
	o = DefaultOverheads()
	o.CIFS = math.NaN()
	if err := o.Validate(); err == nil {
		t.Error("Validate accepted NaN CIFS")
	}
	o = DefaultOverheads()
	o.EIFS = math.Inf(1)
	if err := o.Validate(); err == nil {
		t.Error("Validate accepted +Inf EIFS")
	}
}
