package power

import (
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
)

func TestRouterEnergyAdds(t *testing.T) {
	m := Default45nm()
	e := noc.PowerEvents{BufferWrites: 10, BufferReads: 10, XbarTraversals: 10, LinkTraversals: 10, VCAllocs: 10, SwitchAllocs: 10}
	want := 10 * (m.BufferWritePJ + m.BufferReadPJ + m.XbarPJ + m.LinkPJ + m.VCAllocPJ + m.SwitchAllocPJ)
	if got := m.RouterEnergyPJ(e); got != want {
		t.Fatalf("router energy %g, want %g", got, want)
	}
	if m.RouterEnergyPJ(noc.PowerEvents{}) != 0 {
		t.Fatal("zero events nonzero energy")
	}
}

func TestCodecEnergyAdds(t *testing.T) {
	m := Default45nm()
	s := compress.OpStats{CamSearches: 2, TcamSearches: 3, TableWrites: 4, EncodeOps: 5, DecodeOps: 6, NotificationsSent: 1, NotificationsRecv: 1}
	want := 2*m.CamSearchPJ + 3*m.TcamSearchPJ + 4*m.TableWritePJ + 5*m.EncodeOpPJ + 6*m.DecodeOpPJ + 2*m.NotifPJ
	if got := m.CodecEnergyPJ(s); got != want {
		t.Fatalf("codec energy %g, want %g", got, want)
	}
}

func TestTcamCostsMoreThanCam(t *testing.T) {
	m := Default45nm()
	if m.TcamSearchPJ <= m.CamSearchPJ {
		t.Fatal("TCAM search should cost more than a CAM search")
	}
}

func TestDynamicPowerMW(t *testing.T) {
	m := Default45nm()
	e := noc.PowerEvents{LinkTraversals: 1000}
	// 1000 links * 1.75 pJ over 1000 cycles at 2 GHz:
	// 1.75e-9 J / 0.5e-6 s = 3.5 mW.
	got := m.DynamicPowerMW(e, compress.OpStats{}, 1000, 2)
	want := 3.5
	if got < want*0.999 || got > want*1.001 {
		t.Fatalf("dynamic power %g mW, want %g", got, want)
	}
	if m.DynamicPowerMW(e, compress.OpStats{}, 0, 2) != 0 {
		t.Fatal("zero cycles should yield zero power")
	}
}

func TestAreaModelMatchesPaper(t *testing.T) {
	var a AreaModel
	if a.EncoderMM2(compress.DIVaxx) != 0.0037 {
		t.Fatalf("DI-VAXX encoder area %g, paper says 0.0037", a.EncoderMM2(compress.DIVaxx))
	}
	if a.EncoderMM2(compress.FPVaxx) != 0.0029 {
		t.Fatalf("FP-VAXX encoder area %g, paper says 0.0029", a.EncoderMM2(compress.FPVaxx))
	}
	if a.EncoderMM2(compress.Baseline) != 0 || a.DecoderMM2(compress.Baseline) != 0 {
		t.Fatal("baseline has no codec area")
	}
	// VAXX adds area over the exact schemes.
	if a.EncoderMM2(compress.DIVaxx) <= a.EncoderMM2(compress.DIComp) {
		t.Fatal("DI-VAXX must cost more area than DI-COMP")
	}
	if a.EncoderMM2(compress.FPVaxx) <= a.EncoderMM2(compress.FPComp) {
		t.Fatal("FP-VAXX must cost more area than FP-COMP")
	}
	// Decoders identical across compressed schemes (§5.5).
	if a.DecoderMM2(compress.DIComp) != a.DecoderMM2(compress.FPVaxx) {
		t.Fatal("decoder areas should not vary between schemes")
	}
}

func TestStaticPowerMinimalOverhead(t *testing.T) {
	m := DefaultStatic()
	// §5.5: codec static power is minimal against router leakage — under
	// 3% for every scheme on the 4x4 cmesh (16 routers, 32 NIs).
	for _, s := range compress.ExtendedSchemes() {
		ov := m.Overhead(s, 16, 32)
		if ov < 0 {
			t.Fatalf("%v: negative overhead %g", s, ov)
		}
		if ov > 0.03 {
			t.Fatalf("%v: static overhead %g not minimal", s, ov)
		}
	}
	if m.Overhead(compress.Baseline, 16, 32) != 0 {
		t.Fatal("baseline overhead nonzero")
	}
	if m.TotalMW(compress.DIVaxx, 16, 32) <= m.TotalMW(compress.Baseline, 16, 32) {
		t.Fatal("DI-VAXX static power not above baseline")
	}
	if m.Overhead(compress.DIVaxx, 0, 0) != 0 {
		t.Fatal("degenerate network overhead nonzero")
	}
}
