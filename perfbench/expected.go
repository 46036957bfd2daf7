package main

// The committed outputs every pass is checked against. The digests are
// SHA-256 over the rendered reports (see digest).

type resnetExpect struct {
	cycles   int64
	energyMJ float64 // rounded to 3 decimals
	requests int64
	reports  string
}

type exploreExpect struct {
	screened, promoted, front int
	frontierCSV               string
}

type vitExpect struct {
	cycles                 [3]int64   // 32x32, 64x64, 128x128
	energyMJ               [3]float64 // rounded to 1 decimal
	edpWinner              int
	cacheHits, cacheMisses int64
	reports                string
}

var expected = struct {
	resnet18 resnetExpect
	explore  exploreExpect
	vit      vitExpect
}{
	resnet18: resnetExpect{
		cycles:   28_389_515,
		energyMJ: 136.881,
		requests: 3_822_216,
		reports:  "c6d3be52cc5bffb9584f6be807c9781d919d5f3a6f061878ec1442263c0374ee",
	},
	explore: exploreExpect{
		screened: 100_000, promoted: 276, front: 270,
		frontierCSV: "347a2a4543829b4b4a56ab4f8efa3b1ba4379724dbd73240365b0b107c2f95fe",
	},
	vit: vitExpect{
		cycles:    [3]int64{757_715_652, 311_181_504, 164_813_652},
		energyMJ:  [3]float64{3626.0, 5307.3, 10446.9},
		edpWinner: 64,
		cacheHits: 198, cacheMisses: 36,
		reports: "203d153f79b8abb3a5202c05ce5ffdc715b6d53b774a39f3ea9c1df75ba7a77f",
	},
}

// paperTable5 holds the source paper's Table 5 ViT-base ratios, printed
// beside the simulated ones for information.
var paperTable5 = struct {
	latencyRatio    float64 // 128x128 speed-up over 32x32
	efficiencyRatio float64 // 32x32 energy efficiency over 128x128
	edpWinner       int
}{6.53, 2.86, 64}
