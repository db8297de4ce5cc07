package exp

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("cell (%d,%d) out of range in %s", row, col, tab.ID)
	}
	s := tab.Rows[row][col]
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d)=%q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

// findRow locates the first row whose leading cells match the given values.
func findRow(t *testing.T, tab *Table, keys ...string) []string {
	t.Helper()
	for _, row := range tab.Rows {
		ok := true
		for i, k := range keys {
			if i >= len(row) || row[i] != k {
				ok = false
				break
			}
		}
		if ok {
			return row
		}
	}
	t.Fatalf("row %v not found in %s", keys, tab.ID)
	return nil
}

func parseMS(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a millisecond value: %q", s)
	}
	return v
}

func TestTableIValues(t *testing.T) {
	tab := TableI()
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 models, got %d", len(tab.Rows))
	}
	// Spot-check the Power-SGD ratios against the paper.
	wants := map[string]string{
		"ResNet-50":  "(r=4)",
		"ResNet-152": "(r=4)",
		"BERT-Base":  "(r=32)",
		"BERT-Large": "(r=32)",
	}
	for _, row := range tab.Rows {
		if !strings.Contains(row[4], wants[row[0]]) {
			t.Fatalf("%s: power column %q missing rank annotation", row[0], row[4])
		}
		if row[2] != "32x" || row[3] != "1000x" {
			t.Fatalf("%s: sign/topk nominal ratios wrong: %v", row[0], row)
		}
	}
}

func TestTableIIShape(t *testing.T) {
	tab := TableII()
	if len(tab.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "compress" || tab.Rows[1][0] != "communicate" {
		t.Fatalf("unexpected rows: %v", tab.Rows)
	}
}

func TestFig5CDFMonotoneAndShifted(t *testing.T) {
	tab := Fig5()
	// CDF values must be monotone per model and P/Q curves must dominate M
	// (compression makes tensors smaller).
	var prevM float64
	var prevModel string
	for _, row := range tab.Rows {
		if row[0] != prevModel {
			prevM = -1
			prevModel = row[0]
		}
		m, _ := strconv.ParseFloat(row[2], 64)
		p, _ := strconv.ParseFloat(row[3], 64)
		q, _ := strconv.ParseFloat(row[4], 64)
		if m < prevM {
			t.Fatalf("%s: CDF(M) not monotone", row[0])
		}
		prevM = m
		if p < m-1e-9 || q < m-1e-9 {
			t.Fatalf("%s @ %s: compressed CDFs must dominate M (m=%v p=%v q=%v)", row[0], row[1], m, p, q)
		}
	}
	// The paper's headline: ~30 points more mass under 1e4 for ResNet-50.
	row := findRow(t, tab, "ResNet-50", "1e4")
	m, _ := strconv.ParseFloat(row[2], 64)
	p, _ := strconv.ParseFloat(row[3], 64)
	if p-m < 15 {
		t.Fatalf("ResNet-50 @1e4: compression should shift the CDF up substantially (M=%v P=%v)", m, p)
	}
}

func TestMicroFusionShape(t *testing.T) {
	tab := MicroFusion()
	for _, row := range tab.Rows {
		sep := parseMS(t, row[1])
		fused := parseMS(t, row[2])
		if fused >= sep {
			t.Fatalf("%s: fused (%v) must beat separate (%v)", row[0], fused, sep)
		}
	}
	// ACP fusion gain must dwarf the uncompressed gain (24.3x vs 1.4x in
	// the paper).
	acpGain := cell(t, tab, 2, 3)
	rawGain := cell(t, tab, 1, 3)
	if acpGain < 3*rawGain {
		t.Fatalf("ACP fusion gain (%vx) should dwarf uncompressed gain (%vx)", acpGain, rawGain)
	}
}

func TestFig2Table(t *testing.T) {
	tab, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(tab.Rows))
	}
	row := findRow(t, tab, "BERT-Large")
	if row[2] != "OOM" {
		t.Fatalf("Sign-SGD on BERT-Large should be OOM: %v", row)
	}
	// ResNet-50: compression methods lose to S-SGD.
	r50 := findRow(t, tab, "ResNet-50")
	ssgd := parseMS(t, r50[1])
	for i := 2; i <= 4; i++ {
		if parseMS(t, r50[i]) <= ssgd {
			t.Fatalf("ResNet-50: column %d should lose to S-SGD: %v", i, r50)
		}
	}
}

func TestTableIIIShape(t *testing.T) {
	tab, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	var sumSSGD, sumACP float64
	for _, row := range tab.Rows {
		ssgd := parseMS(t, row[1])
		acp := parseMS(t, row[4])
		if acp >= ssgd {
			t.Fatalf("%s: ACP must beat S-SGD", row[0])
		}
		sumSSGD += ssgd / acp
		sumACP++
	}
	// Average ACP speedup over S-SGD: paper 4.06x; require >= 2.5x.
	if avg := sumSSGD / sumACP; avg < 2.5 {
		t.Fatalf("average ACP speedup %.2fx, want >= 2.5x", avg)
	}
}

func TestFig8BreakdownSums(t *testing.T) {
	tab, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		sum := parseMS(t, row[2]) + parseMS(t, row[3]) + parseMS(t, row[4])
		total := parseMS(t, row[5])
		if diff := sum - total; diff > 2 || diff < -2 {
			t.Fatalf("%v: breakdown sums to %v, total %v", row[:2], sum, total)
		}
	}
	// ACP's compression+comm overhead is the smallest of the compressors.
	for _, model := range []string{"ResNet-50", "BERT-Base"} {
		acp := findRow(t, tab, model, "ACP-SGD")
		power := findRow(t, tab, model, "Power-SGD")
		acpOver := parseMS(t, acp[3]) + parseMS(t, acp[4])
		powerOver := parseMS(t, power[3]) + parseMS(t, power[4])
		if acpOver >= powerOver {
			t.Fatalf("%s: ACP overhead (%v) should beat Power (%v)", model, acpOver, powerOver)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	tab, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"ResNet-152", "BERT-Large"} {
		for _, method := range []string{"S-SGD", "ACP-SGD"} {
			row := findRow(t, tab, model, method)
			naive, wfbp, tf := parseMS(t, row[2]), parseMS(t, row[3]), parseMS(t, row[4])
			if !(naive > wfbp && wfbp >= tf) {
				t.Fatalf("%s %s: want naive > wfbp >= tf, got %v %v %v", model, method, naive, wfbp, tf)
			}
		}
		row := findRow(t, tab, model, "Power-SGD")
		naive, wfbp, tf := parseMS(t, row[2]), parseMS(t, row[3]), parseMS(t, row[4])
		if wfbp <= naive {
			t.Fatalf("%s Power-SGD: WFBP should hurt (naive %v, wfbp %v)", model, naive, wfbp)
		}
		if tf >= wfbp {
			t.Fatalf("%s Power-SGD: TF should rescue WFBP (%v vs %v)", model, tf, wfbp)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tab, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// For each rank: ACP at 25MB <= ACP at 0MB and at 1500MB; ACP beats
	// Power at every point.
	for _, rank := range []string{"32", "256"} {
		def := parseMS(t, findRow(t, tab, rank, "25")[3])
		zero := parseMS(t, findRow(t, tab, rank, "0")[3])
		huge := parseMS(t, findRow(t, tab, rank, "1500")[3])
		if def > zero || def > huge {
			t.Fatalf("rank %s: 25MB (%v) should be near-optimal (0MB %v, 1500MB %v)", rank, def, zero, huge)
		}
	}
	for _, row := range tab.Rows {
		power := parseMS(t, row[2])
		acp := parseMS(t, row[3])
		if acp >= power {
			t.Fatalf("rank %s buf %s: ACP (%v) should beat Power (%v)", row[0], row[1], acp, power)
		}
	}
}

func TestFig11aShape(t *testing.T) {
	tab, err := Fig11a()
	if err != nil {
		t.Fatal(err)
	}
	sp := func(batch string) float64 {
		ssgd := parseMS(t, findRow(t, tab, batch, "S-SGD")[5])
		acp := parseMS(t, findRow(t, tab, batch, "ACP-SGD")[5])
		return ssgd / acp
	}
	if sp("16") <= sp("32") {
		t.Fatalf("ACP speedup should shrink with batch: %.2f @16 vs %.2f @32", sp("16"), sp("32"))
	}
}

func TestFig11bShape(t *testing.T) {
	tab, err := Fig11b()
	if err != nil {
		t.Fatal(err)
	}
	adv := func(rank string) float64 {
		power := parseMS(t, findRow(t, tab, rank, "Power-SGD")[5])
		acp := parseMS(t, findRow(t, tab, rank, "ACP-SGD")[5])
		return power / acp
	}
	if adv("256") <= adv("32") {
		t.Fatalf("ACP advantage should grow with rank: %.2f @32, %.2f @256", adv("32"), adv("256"))
	}
}

func TestFig12Shape(t *testing.T) {
	tab, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"ResNet-50", "BERT-Base"} {
		t8 := parseMS(t, findRow(t, tab, model, "8")[4])
		t64 := parseMS(t, findRow(t, tab, model, "64")[4])
		if t64 < t8 || t64 > 1.35*t8 {
			t.Fatalf("%s ACP: scaling 8->64 GPUs %v -> %v not near-flat", model, t8, t64)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tab, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"ResNet-50", "BERT-Base"} {
		sp1 := cell(t, tab, rowIndex(t, tab, model, "1GbE"), 5)
		sp10 := cell(t, tab, rowIndex(t, tab, model, "10GbE"), 5)
		sp100 := cell(t, tab, rowIndex(t, tab, model, "100GbIB"), 5)
		if !(sp1 > sp10 && sp10 > sp100) {
			t.Fatalf("%s: speedups must shrink with bandwidth: %v %v %v", model, sp1, sp10, sp100)
		}
		// On 100Gb IB the paper's Fig 13a shows all methods about equal on
		// ResNet-50 (compute-bound); BERT-Base keeps a ~1.4x ACP win.
		floor := 0.93
		if model == "BERT-Base" {
			floor = 1.05
		}
		if sp100 < floor {
			t.Fatalf("%s: 100Gb ACP speedup %v below floor %v", model, sp100, floor)
		}
	}
}

func rowIndex(t *testing.T, tab *Table, keys ...string) int {
	t.Helper()
	for i, row := range tab.Rows {
		ok := true
		for j, k := range keys {
			if row[j] != k {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	t.Fatalf("row %v not found", keys)
	return -1
}

func TestAblationInterferenceShape(t *testing.T) {
	tab, err := AblationInterference()
	if err != nil {
		t.Fatal(err)
	}
	// Power-SGD* degrades monotonically as the rate drops; ACP is constant.
	var prevPower float64
	acpRef := parseMS(t, tab.Rows[0][2])
	for i, row := range tab.Rows {
		power := parseMS(t, row[1])
		if i > 0 && power < prevPower {
			t.Fatalf("Power* should slow down as interference grows: %v", tab.Rows)
		}
		prevPower = power
		if parseMS(t, row[2]) != acpRef {
			t.Fatalf("ACP must be interference-immune: %v", tab.Rows)
		}
	}
}

func TestAblationAlphaShape(t *testing.T) {
	tab, err := AblationAlpha()
	if err != nil {
		t.Fatal(err)
	}
	// Fusion gain grows with alpha; fused time is alpha-robust.
	var prevGain float64
	for i := range tab.Rows {
		gain := cell(t, tab, i, 3)
		if gain < prevGain-1e-9 {
			t.Fatalf("fusion gain should grow with alpha: %v", tab.Rows)
		}
		prevGain = gain
	}
	first := parseMS(t, tab.Rows[0][2])
	last := parseMS(t, tab.Rows[len(tab.Rows)-1][2])
	if last > 1.3*first {
		t.Fatalf("fused ACP should be robust to alpha: %v -> %v", first, last)
	}
}

func TestAblationSelectionMeasures(t *testing.T) {
	tab, err := AblationSelection()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 sizes, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if parseMS(t, row[1]) <= 0 || parseMS(t, row[2]) <= 0 {
			t.Fatalf("non-positive measurement: %v", row)
		}
	}
}

func TestRegistryCoversAllExperiments(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11a", "fig11b", "fig12", "fig13", "micro",
		"ablation-interference", "ablation-alpha",
		"ablation-selection",
	}
	names := Names()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Fatalf("experiment %q missing from registry", w)
		}
	}
	if _, err := Run("nope", ConvOptions{}); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestRunDispatch(t *testing.T) {
	tab, err := Run("table1", ConvOptions{})
	if err != nil || tab.ID != "table1" {
		t.Fatalf("dispatch failed: %v %v", tab, err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "t",
		Title:   "title",
		Columns: []string{"A", "LongColumn"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("x", 1.5)
	s := tab.String()
	for _, want := range []string{"== t: title ==", "LongColumn", "a note", "1.5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// Convergence experiments are comparatively slow; keep them short here and
// verify only the headline shapes.
func TestFig6ConvergenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence run in -short mode")
	}
	tab, err := Fig6(ConvOptions{Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"minivgg", "miniresnet"} {
		ssgd := cell(t, tab, rowIndex(t, tab, model, "ssgd"), 5)
		power := cell(t, tab, rowIndex(t, tab, model, "power"), 5)
		acp := cell(t, tab, rowIndex(t, tab, model, "acp"), 5)
		if acp < ssgd-8 {
			t.Fatalf("%s: ACP final %.1f%% too far below S-SGD %.1f%%", model, acp, ssgd)
		}
		if power < ssgd-8 {
			t.Fatalf("%s: Power final %.1f%% too far below S-SGD %.1f%%", model, power, ssgd)
		}
	}
}

func TestFig7AblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence run in -short mode")
	}
	tab, err := Fig7(ConvOptions{Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"minivgg", "miniresnet"} {
		full := cell(t, tab, rowIndex(t, tab, model, "ACP-SGD"), 5)
		noEF := cell(t, tab, rowIndex(t, tab, model, "ACP-SGD w/o EF"), 5)
		noReuse := cell(t, tab, rowIndex(t, tab, model, "ACP-SGD w/o reuse"), 5)
		if full < noEF+5 {
			t.Fatalf("%s: EF should clearly help (full %.1f%%, w/o EF %.1f%%)", model, full, noEF)
		}
		if full < noReuse+5 {
			t.Fatalf("%s: reuse should clearly help (full %.1f%%, w/o reuse %.1f%%)", model, full, noReuse)
		}
	}
}
