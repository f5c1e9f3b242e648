// Command paperrepro regenerates the tables and figures of "Burstiness in
// Multi-Tier Applications: Symptoms, Causes, and New Models" (Middleware
// 2008) on the simulated testbed and prints paper-vs-measured tables.
//
// Usage:
//
//	paperrepro [-experiment all|fig1|table1|fig4|fig5|fig6|fig7|fig10|fig11|fig12|setup]
//	           [-scale quick|bench|full] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/experiments"
	"repro/internal/tpcw"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

func run() error {
	experiment := flag.String("experiment", "all", "which artifact to regenerate (all, fig1, table1, fig4, fig5, fig6, fig7, fig10, fig11, fig12, setup)")
	scaleName := flag.String("scale", "quick", "experiment scale: quick, bench or full")
	seed := flag.Int64("seed", 11, "base random seed")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick()
	case "bench":
		scale = experiments.Quick()
		scale.SimDuration = 1200
		scale.FitDuration = 2400
	case "full":
		scale = experiments.Full()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	runners := map[string]func(int64, experiments.Scale) error{
		"fig1":   printFigure1,
		"table1": printTable1,
		"fig4":   printFigure4,
		"fig5":   printFigure5,
		"fig6":   printFigure6,
		"fig7":   printFigure7,
		"fig10":  printFigure10,
		"fig11":  printFigure11,
		"fig12":  printFigure12,
		"setup":  printSetup,
	}
	if *experiment == "all" {
		for _, name := range []string{"setup", "fig1", "table1", "fig4", "fig5", "fig6", "fig7", "fig10", "fig11", "fig12"} {
			fmt.Printf("==== %s ====\n", name)
			if err := runners[name](*seed, scale); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	fn, ok := runners[*experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return fn(*seed, scale)
}

func tab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func printSetup(int64, experiments.Scale) error {
	fmt.Println("Table 2 substitute — simulated testbed components:")
	fmt.Println("  clients: closed EB sessions, exponential think time (default Z = 0.5 s)")
	fmt.Println("  front server: processor-sharing CPU, per-type page-build demands")
	fmt.Println("  database server: processor-sharing CPU, per-query demands,")
	fmt.Println("    Markov-modulated contention epochs triggered by Best Seller/Home queries")
	fmt.Println()
	fmt.Println("Table 3 — the 14 TPC-W transactions and per-mix visit shares:")
	w := tab()
	fmt.Fprintln(w, "transaction\tgroup\tbrowsing\tshopping\tordering")
	b, s, o := tpcw.BrowsingMix(), tpcw.ShoppingMix(), tpcw.OrderingMix()
	for t := tpcw.Transaction(0); t < tpcw.NumTransactions; t++ {
		group := "Ordering"
		if t.IsBrowsing() {
			group = "Browsing"
		}
		fmt.Fprintf(w, "%v\t%s\t%.4f\t%.4f\t%.4f\n", t, group, b.Weights[t], s.Weights[t], o.Weights[t])
	}
	return w.Flush()
}

func printFigure1(seed int64, scale experiments.Scale) error {
	rows, err := experiments.Figure1(seed, scale)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "profile\tmean\tSCV\tI (measured)\tI (paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.2f\t%.1f\t%.1f\n", r.Profile, r.Mean, r.SCV, r.I, r.PaperI)
	}
	return w.Flush()
}

func printTable1(seed int64, scale experiments.Scale) error {
	rows, err := experiments.Table1(seed, scale)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "workload\tI\tmean@0.5\tp95@0.5\tmean@0.8\tp95@0.8")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Profile, r.I, r.Mean50, r.P95At50, r.Mean80, r.P95At80)
		fmt.Fprintf(w, "  (paper)\t\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.PaperMean50, r.PaperP95At50, r.PaperMean80, r.PaperP95At80)
	}
	return w.Flush()
}

func printFigure4(seed int64, scale experiments.Scale) error {
	rows, err := experiments.Figure4(seed, scale, nil)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "mix\tEBs\tTPUT\tU_front\tU_db")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.2f\t%.2f\n", r.Mix, r.EBs, r.TPUT, r.UtilFront, r.UtilDB)
	}
	return w.Flush()
}

func printFigure5(seed int64, scale experiments.Scale) error {
	stats, err := experiments.Figure5And6(seed, scale)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "mix\tmean U_front\tmean U_db\tP90 U_db\tmax U_db\tswitch fraction")
	for _, s := range stats {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.3f\n",
			s.Mix, s.MeanFront, s.MeanDB, s.P90DB, s.MaxDB, s.SwitchFraction)
	}
	return w.Flush()
}

func printFigure6(seed int64, scale experiments.Scale) error {
	stats, err := experiments.Figure5And6(seed, scale)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "mix\tQdb mean\tQdb P10\tQdb P90\tQdb max")
	for _, s := range stats {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.0f\n",
			s.Mix, s.MeanQueueDB, s.QueueP10, s.QueueP90, s.MaxQueueDB)
	}
	return w.Flush()
}

func printFigure7(seed int64, scale experiments.Scale) error {
	rows, err := experiments.Figure7And8(seed, scale)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "mix\ttype\tshare\tmean in-system\tmax in-system\tcorr(DB queue)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.1f\t%.0f\t%.2f\n",
			r.Mix, r.Type, r.Share, r.MeanInSystem, r.MaxInSystem, r.CorrWithDBQueue)
	}
	return w.Flush()
}

func printFigure10(seed int64, scale experiments.Scale) error {
	rows, err := experiments.Figure10(seed, scale, nil)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "mix\tEBs\tmeasured\tMVA\terr%")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\n", r.Mix, r.EBs, r.Measured, r.MVA, 100*r.MVAErr)
	}
	return w.Flush()
}

func printFigure11(seed int64, scale experiments.Scale) error {
	rows, err := experiments.Figure11(seed, scale, nil)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "EBs\tmeasured\tmodel-Z0.5\terr%\tmodel-Z7\terr%\tpaper err% (Z0.5/Z7)")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f/%.1f\n",
			r.EBs, r.Measured, r.ModelZ05, 100*r.ErrZ05, r.ModelZ7, 100*r.ErrZ7,
			100*r.PaperErr05, 100*r.PaperErr7)
	}
	return w.Flush()
}

func printFigure12(seed int64, scale experiments.Scale) error {
	results, err := experiments.Figure12(seed, scale, nil)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Printf("%s: I_front = %.1f (paper %.0f), I_db = %.1f (paper %.0f)\n",
			res.Mix, res.IFront, res.PaperIF, res.IDB, res.PaperID)
		w := tab()
		fmt.Fprintln(w, "EBs\tmeasured\tMAP model\terr%\tMVA\terr%")
		for _, r := range res.Rows {
			fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				r.EBs, r.Measured, r.MAPModel, 100*r.MAPErr, r.MVA, 100*r.MVAErr)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}
