package compress

import "approxnoc/internal/obs"

// RegisterMetrics exports an OpStats source on reg as collector-backed
// families under prefix — the one codec exporter, shared by the NoC
// (aggregated NI codecs, prefix "noc") and the serve gateway (aggregated
// shard pools, prefix "serve") so both layers expose the same shapes.
func RegisterMetrics(reg *obs.Registry, prefix string, src func() OpStats) {
	reg.Collector(prefix+"_codec_blocks_total", "blocks through the codecs, by direction",
		obs.TypeCounter, []string{"dir"}, func() []obs.Sample {
			s := src()
			return []obs.Sample{
				{LabelValues: []string{"decoded"}, Value: float64(s.BlocksDecoded)},
				{LabelValues: []string{"encoded"}, Value: float64(s.BlocksIn)},
			}
		})
	reg.Collector(prefix+"_codec_words_total", "encoder word outcomes: compressed exact/approx or raw",
		obs.TypeCounter, []string{"kind"}, func() []obs.Sample {
			s := src()
			return []obs.Sample{
				{LabelValues: []string{"approx"}, Value: float64(s.WordsApprox)},
				{LabelValues: []string{"exact"}, Value: float64(s.WordsExact)},
				{LabelValues: []string{"raw"}, Value: float64(s.WordsRaw)},
			}
		})
	reg.Collector(prefix+"_codec_bits_total", "payload bits before and after encoding",
		obs.TypeCounter, []string{"dir"}, func() []obs.Sample {
			s := src()
			return []obs.Sample{
				{LabelValues: []string{"in"}, Value: float64(s.BitsIn)},
				{LabelValues: []string{"out"}, Value: float64(s.BitsOut)},
			}
		})
	reg.Collector(prefix+"_codec_avcl_total", "approximate value compute logic outcomes",
		obs.TypeCounter, []string{"op"}, func() []obs.Sample {
			s := src()
			return []obs.Sample{
				{LabelValues: []string{"bypass"}, Value: float64(s.AVCLBypasses)},
				{LabelValues: []string{"clip"}, Value: float64(s.AVCLClips)},
				{LabelValues: []string{"mask_hit"}, Value: float64(s.AVCLMaskHits)},
			}
		})
	reg.Collector(prefix+"_codec_searches_total", "pattern table lookups, by match unit",
		obs.TypeCounter, []string{"unit"}, func() []obs.Sample {
			s := src()
			return []obs.Sample{
				{LabelValues: []string{"cam"}, Value: float64(s.CamSearches)},
				{LabelValues: []string{"tcam"}, Value: float64(s.TcamSearches)},
			}
		})
	reg.Collector(prefix+"_codec_table_writes_total", "pattern-matching-table installs and updates",
		obs.TypeCounter, nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(src().TableWrites)}}
		})
	reg.Collector(prefix+"_codec_notifications_total", "dictionary control messages, by direction",
		obs.TypeCounter, []string{"dir"}, func() []obs.Sample {
			s := src()
			return []obs.Sample{
				{LabelValues: []string{"recv"}, Value: float64(s.NotificationsRecv)},
				{LabelValues: []string{"sent"}, Value: float64(s.NotificationsSent)},
			}
		})
	reg.Collector(prefix+"_codec_compression_ratio", "uncompressed over encoded payload bits",
		obs.TypeGauge, nil, func() []obs.Sample {
			return []obs.Sample{{Value: src().CompressionRatio()}}
		})
	reg.Collector(prefix+"_codec_data_quality", "1 - mean relative word error",
		obs.TypeGauge, nil, func() []obs.Sample {
			return []obs.Sample{{Value: src().DataQuality()}}
		})
}
