// Package power converts the simulator's microarchitectural event counts
// into dynamic energy and power, and carries the area constants for the
// §5.5 overhead analysis. The paper uses Orion-style router power and
// CACTI/Verilog area at 45 nm; we encode per-event energies in those
// tools' typical ranges. Absolute watts are not the reproduction target —
// the relative dynamic power across schemes (Fig. 15) is.
package power

import (
	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
)

// EnergyModel holds per-event dynamic energies in picojoules.
type EnergyModel struct {
	// Router events.
	BufferWritePJ float64
	BufferReadPJ  float64
	XbarPJ        float64
	LinkPJ        float64
	VCAllocPJ     float64
	SwitchAllocPJ float64
	// Codec events. CAM/TCAM searches are per word per 8-entry table
	// (TCAM match lines burn more than a binary CAM's, per Agrawal &
	// Sherwood's model the paper cites [1]).
	CamSearchPJ  float64
	TcamSearchPJ float64
	TableWritePJ float64
	EncodeOpPJ   float64
	DecodeOpPJ   float64
	NotifPJ      float64
}

// Default45nm returns the 45 nm model used throughout the evaluation.
func Default45nm() EnergyModel {
	return EnergyModel{
		BufferWritePJ: 1.20,
		BufferReadPJ:  0.90,
		XbarPJ:        1.90,
		LinkPJ:        1.75,
		VCAllocPJ:     0.12,
		SwitchAllocPJ: 0.12,
		CamSearchPJ:   0.55,
		TcamSearchPJ:  0.85,
		TableWritePJ:  0.40,
		EncodeOpPJ:    0.15,
		DecodeOpPJ:    0.25,
		NotifPJ:       0.10,
	}
}

// RouterEnergyPJ converts router events into picojoules.
func (m EnergyModel) RouterEnergyPJ(e noc.PowerEvents) float64 {
	return float64(e.BufferWrites)*m.BufferWritePJ +
		float64(e.BufferReads)*m.BufferReadPJ +
		float64(e.XbarTraversals)*m.XbarPJ +
		float64(e.LinkTraversals)*m.LinkPJ +
		float64(e.VCAllocs)*m.VCAllocPJ +
		float64(e.SwitchAllocs)*m.SwitchAllocPJ
}

// CodecEnergyPJ converts compression/approximation events into picojoules.
func (m EnergyModel) CodecEnergyPJ(s compress.OpStats) float64 {
	return float64(s.CamSearches)*m.CamSearchPJ +
		float64(s.TcamSearches)*m.TcamSearchPJ +
		float64(s.TableWrites)*m.TableWritePJ +
		float64(s.EncodeOps)*m.EncodeOpPJ +
		float64(s.DecodeOps)*m.DecodeOpPJ +
		float64(s.NotificationsSent+s.NotificationsRecv)*m.NotifPJ
}

// TotalEnergyPJ is router plus codec energy.
func (m EnergyModel) TotalEnergyPJ(e noc.PowerEvents, s compress.OpStats) float64 {
	return m.RouterEnergyPJ(e) + m.CodecEnergyPJ(s)
}

// DynamicPowerMW converts total energy over a cycle count into milliwatts
// at the given clock frequency (Table 1: 2 GHz).
func (m EnergyModel) DynamicPowerMW(e noc.PowerEvents, s compress.OpStats, cycles uint64, freqGHz float64) float64 {
	if cycles == 0 {
		return 0
	}
	seconds := float64(cycles) / (freqGHz * 1e9)
	joules := m.TotalEnergyPJ(e, s) * 1e-12
	return joules / seconds * 1e3
}

// StaticModel carries the §5.5 static (leakage) power constants. The
// paper reports only that codec static power is minimal against the
// baseline router leakage; these constants encode that relationship.
type StaticModel struct {
	// RouterMW is leakage per router (45 nm VC router, ~15 mW).
	RouterMW float64
	// EncoderMW and DecoderMW are per-NI codec adders, roughly
	// proportional to the §5.5 areas.
	EncoderMW map[compress.Scheme]float64
	DecoderMW float64
}

// DefaultStatic returns the 45 nm static power model.
func DefaultStatic() StaticModel {
	return StaticModel{
		RouterMW: 15.0,
		EncoderMW: map[compress.Scheme]float64{
			compress.Baseline: 0,
			compress.DIComp:   0.055,
			compress.DIVaxx:   0.066,
			compress.FPComp:   0.025,
			compress.FPVaxx:   0.052,
			compress.BDComp:   0.016,
			compress.BDVaxx:   0.038,
		},
		DecoderMW: 0.020,
	}
}

// TotalMW returns network static power for a scheme over the given
// router and NI counts.
func (m StaticModel) TotalMW(s compress.Scheme, routers, nis int) float64 {
	enc := m.EncoderMW[s]
	dec := m.DecoderMW
	if s == compress.Baseline {
		dec = 0
	}
	return float64(routers)*m.RouterMW + float64(nis)*(enc+dec)
}

// Overhead returns the scheme's static power increase over baseline as a
// fraction — the §5.5 "minimal" claim quantified.
func (m StaticModel) Overhead(s compress.Scheme, routers, nis int) float64 {
	base := m.TotalMW(compress.Baseline, routers, nis)
	if base == 0 {
		return 0
	}
	return m.TotalMW(s, routers, nis)/base - 1
}

// AreaModel carries the §5.5 per-NI encoder/decoder areas in mm² at 45 nm.
// The DI-VAXX and FP-VAXX numbers are the paper's own; the exact-scheme
// numbers drop the APCL/TCAM overhead.
type AreaModel struct{}

// EncoderMM2 returns the per-NI encoder area for a scheme.
func (AreaModel) EncoderMM2(s compress.Scheme) float64 {
	switch s {
	case compress.Baseline:
		return 0
	case compress.DIComp:
		return 0.0031
	case compress.DIVaxx:
		return 0.0037 // paper §5.5
	case compress.FPComp:
		return 0.0014
	case compress.FPVaxx:
		return 0.0029 // paper §5.5
	case compress.BDComp:
		return 0.0009 // extension comparator: base registers + subtractors
	case compress.BDVaxx:
		return 0.0021 // plus the AVCL clamping path
	default:
		return 0
	}
}

// DecoderMM2 returns the per-NI decoder area, identical across schemes
// (§5.5: "the decoder design does not change between the schemes").
func (AreaModel) DecoderMM2(s compress.Scheme) float64 {
	if s == compress.Baseline {
		return 0
	}
	return 0.0011
}
