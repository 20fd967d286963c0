//! The tile graph: the tile DAG of one tiling at one parameter binding,
//! derived once and read by everything that schedules, partitions, counts
//! or simulates tiles.
//!
//! The paper's generator derives the tile space, the tile dependencies
//! (Section IV-F), the per-tile work the load balancer cuts (Section IV-J)
//! and the initial tiles (Section IV-K) once, at generation time.
//! [`TileGraph`] is that derivation as one value. A tile is its index in
//! tile-nest order; the graph keeps the *rows* — runs of tiles sharing every
//! coordinate but the innermost loop's, which the tile nest scans as one
//! interval ([`LoopNest::for_each_row`]) — and, per tile, only the neighbour
//! at either end of every dependency and the geometry *class*, off which
//! hang — each filled on first request, once — the cells of every tile, the
//! cells of every edge it packs and the recording an execution replays. It
//! carries the tiling and the binding it was built from, so a consumer
//! handed a graph cannot pair it with another problem.
//!
//! A tile's coordinate is its row's plus its offset ([`TileGraph::coord`],
//! a binary search on the rows' first indices); a coordinate from outside
//! finds its index through one map entry per row; a tile's dependency count
//! is how many sources it links to. The links are one row lookup per row
//! and dependency; a row's first signature is carried along it by
//! arithmetic, so a map is probed only where a run's signature differs from
//! the one before. Nothing hashes, or keeps a coordinate, per tile.
//!
//! It also sorts: [`TileGraph::ordering`] is the tiles in one lexicographic
//! order on flow-adjusted coordinates, with every tile's position in it —
//! what a ready queue keys on, what a slab cut walks and what a static plan
//! deals from — sorted once per order and kept with the graph.
//!
//! Tiles with one signature (the [`geom`](crate::geom) module docs) have
//! the same cells in the same places, so the polyhedral walks are paid once
//! per *class* rather than once per tile, on the tile that introduced the
//! class: [`Tiling::tile_cell_count`] when cells are first asked for,
//! [`EdgeLayout::count`] per dependency when edge cells are,
//! [`Tiling::record`] when a tile of the class is first executed. The
//! classing itself happens once, ahead of all three, and leaves an integer
//! per tile. A dense 2-D box has four classes whatever its size; the paper
//! derives its loops once per problem and evaluates a counting polynomial
//! per slab for the same reason (Sections IV-G to IV-J).
//!
//! [`EdgeLayout::count`]: crate::EdgeLayout::count
//! [`LoopNest::for_each_row`]: dpgen_polyhedra::LoopNest::for_each_row

use crate::coord::{Coord, MAX_DIMS};
use crate::geom::TileGeom;
use crate::template::Direction;
use crate::tiling::Tiling;
use dpgen_polyhedra::PolyError;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Byte budget of one graph's recordings. Past it a recording is built,
/// used and dropped, so what a plan keeps never grows with the problem. LCS
/// needs a few KiB, the 4-D bandit under half a MiB.
const GEOMETRY_BUDGET_BYTES: usize = 8 << 20;

/// The tile DAG of one [`Tiling`] at one parameter binding; see the
/// [module docs](self). Built by [`Tiling::graph`] or [`TileGraph::new`].
/// A tile is its index; per tile the graph keeps only links and a class.
pub struct TileGraph {
    tiling: Arc<Tiling>,
    params: Vec<i64>,
    /// Problem dimension of the tile nest's innermost loop.
    inner: usize,
    /// The rows, in tile-nest order.
    rows: Vec<TileRow>,
    /// Index into `rows`, keyed by a row's tiles with coordinate `inner`
    /// zeroed.
    row_of: HashMap<Coord, u32>,
    /// Dependencies per tile ([`Tiling::deps`]): the stride of `links`.
    ndeps: usize,
    /// Per tile and dependency `delta`, the index of the source tile
    /// `t + delta` and of the consumer tile `t - delta` ([`NO_TILE`] where
    /// there is none).
    links: Vec<[u32; 2]>,
    /// The tiles sorted into geometry classes, by the first caller that
    /// needs a class; the three things below hang off it.
    classes: OnceLock<Classes>,
    /// Per class, the cell count of its tiles; counted by the first
    /// [`TileGraph::cells`].
    cells: OnceLock<Vec<u128>>,
    /// Per class and dependency, the cells of the edge a tile of the class
    /// packs ([`Tiling::edges`]), `classes × ndeps`, or the fault of the
    /// walk that could not count one; walked by the first
    /// [`TileGraph::edge_cells`]. Apart from `cells` because a compile
    /// never asks: on the 6-D bandits (ten dependencies, nine classes for 28
    /// tiles) the edge walks cost more than every tile's cell walk together.
    edge_counts: OnceLock<Result<Vec<u64>, PolyError>>,
    /// Bytes of the recordings parked in the classes' slots, and what they
    /// may add up to.
    geometry_bytes: AtomicUsize,
    geometry_budget: AtomicUsize,
    /// The orderings asked for so far, by `(by_level, dimension order)`.
    orderings: Mutex<Vec<(OrderKey, Arc<TileOrdering>)>>,
}

/// `(by_level, every dimension, most significant first)`.
type OrderKey = (bool, Vec<usize>);

/// Orderings a graph keeps. The order is chosen by a run's options, which
/// arrive from outside: past this many the oldest is dropped and sorted
/// again if it is ever asked for.
const MAX_ORDERINGS: usize = 8;

/// A graph's tiles in one total order, both ways round; see
/// [`TileGraph::ordering`].
#[derive(Debug)]
pub struct TileOrdering {
    /// Tile indices, earliest first.
    pub order: Vec<u32>,
    /// Per tile, its position in `order`.
    pub rank: Vec<u32>,
}

/// The graph's tiles sorted into geometry classes. Resident: 4 bytes per
/// tile, 20 per class; the signatures that told the classes apart are
/// dropped once every tile has its class.
struct Classes {
    /// Per tile, its class, numbered in order of first appearance.
    class_of: Vec<u32>,
    /// Per class, the tile that introduced it: the one tile of the class
    /// whose cells and edges are walked.
    walked: Vec<u32>,
    /// Per class, the recording of a tile of the class, parked by the first
    /// [`TileGraph::geometry`] that made one within the budget.
    recordings: Vec<OnceLock<Arc<TileGeom>>>,
}

impl Classes {
    /// Sort the tiles of `rows`, which run along problem dimension `inner`,
    /// into classes under the parameters bound in `point`. A row's first
    /// signature is computed in full and carried along it by arithmetic
    /// ([`SigRows::run`] tiles share it, then [`SigRows::step`] past them);
    /// a run whose signature equals the one before takes its class
    /// unprobed.
    ///
    /// [`SigRows::run`]: crate::geom::SigRows::run
    /// [`SigRows::step`]: crate::geom::SigRows::step
    fn sort(tiling: &Tiling, rows: &[TileRow], inner: usize, point: &[i128]) -> Classes {
        let sig_rows = &tiling.sig_rows;
        let mut classes = Classes {
            class_of: Vec::with_capacity(rows.last().map_or(0, TileRow::end)),
            walked: Vec::new(),
            recordings: Vec::new(),
        };
        let mut by_signature: HashMap<Box<[i128]>, u32> = HashMap::new();
        let [mut exact, mut last, mut sig, mut prev] = [(); 4].map(|_| vec![0i128; sig_rows.len()]);
        // The class of the run before, when it has a signature (in `prev`).
        let mut prev_class = None;
        for row in rows {
            // Every partial sum of a `K` is affine along the row, so when
            // both ends of the row sign, every tile between signs, and its
            // exact `K`s are the advanced ones. Otherwise every tile is
            // signed in full, a run of one.
            let advance = sig_rows.exact(&row.first, point, &mut exact).is_ok()
                && (row.len == 1
                    || sig_rows
                        .exact(&row.tile(inner, row.len - 1), point, &mut last)
                        .is_ok());
            let mut offset = 0;
            while offset < row.len {
                let (signed, run) = if advance {
                    sig.copy_from_slice(&exact);
                    sig_rows.clamp(&mut sig);
                    (true, sig_rows.run(inner, &exact, row.len - offset))
                } else {
                    let signed = tiling.signature(&row.tile(inner, offset), point, &mut sig);
                    (signed.is_ok(), 1)
                };
                // A signature that overflows names no class: the tile is a
                // class of its own.
                let known = match prev_class {
                    Some(class) if signed && sig == prev => Some(class),
                    _ => by_signature.get(&sig[..]).copied().filter(|_| signed),
                };
                let class = known.unwrap_or_else(|| {
                    let fresh = classes.walked.len() as u32;
                    if signed {
                        by_signature.insert(sig.as_slice().into(), fresh);
                    }
                    classes.walked.push((row.start + offset) as u32);
                    fresh
                });
                let class_of = &mut classes.class_of;
                class_of.extend(std::iter::repeat_n(class, run));
                prev_class = signed.then_some(class);
                std::mem::swap(&mut sig, &mut prev);
                offset += run;
                if advance && offset < row.len {
                    sig_rows.step(inner, run, &mut exact);
                }
            }
        }
        classes.recordings = classes.walked.iter().map(|_| OnceLock::new()).collect();
        classes
    }

    /// Count the cells of each class's walked tile, a tile of `rows` along
    /// `inner`.
    fn count_cells(
        &self,
        tiling: &Tiling,
        (rows, inner): (&[TileRow], usize),
        point: &mut [i128],
    ) -> Vec<u128> {
        let walked = self.walked.iter();
        walked
            .map(|&i| tiling.tile_cell_count(&tile_at(rows, inner, i as usize), point))
            .collect()
    }

    /// Walk every dependency's edge nest at each class's walked tile. A
    /// nest is evaluated in checked arithmetic: a bound that overflows at
    /// the walked tile is this call's fault, not a panic.
    fn count_edges(
        &self,
        tiling: &Tiling,
        (rows, inner): (&[TileRow], usize),
        point: &mut [i128],
    ) -> Result<Vec<u64>, PolyError> {
        let mut edge_cells = Vec::with_capacity(self.walked.len() * tiling.edges().len());
        for &i in &self.walked {
            tiling.set_tile(&tile_at(rows, inner, i as usize), point);
            for edge in tiling.edges() {
                let cells = edge.count(point)?;
                let cells = u64::try_from(cells).map_err(|_| PolyError::Overflow("edge cells"))?;
                edge_cells.push(cells);
            }
        }
        Ok(edge_cells)
    }
}

/// `links` entry of a neighbour outside the tile space.
const NO_TILE: u32 = u32::MAX;

/// A run of tiles sharing every coordinate but the innermost loop's.
#[derive(Clone, Copy)]
struct TileRow {
    /// The row's first tile, the one lowest along `inner`.
    first: Coord,
    len: usize,
    /// Index of the row's first tile.
    start: usize,
}

impl TileRow {
    /// Tile `offset` of the row.
    fn tile(&self, inner: usize, offset: usize) -> Coord {
        let mut tile = self.first;
        tile.set(inner, self.first[inner] + offset as i64);
        tile
    }

    /// One past the index of the row's last tile.
    fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Tile `i` of `rows` along `inner`: its row by a binary search on the
/// rows' first indices, then its offset along the row. Panics past the end.
fn tile_at(rows: &[TileRow], inner: usize, i: usize) -> Coord {
    let row = &rows[rows.partition_point(|row| row.start <= i) - 1];
    assert!(i < row.end(), "tile {i} is beyond the tile graph's last");
    row.tile(inner, i - row.start)
}

/// The key of the row holding `tile`: the tile with coordinate `inner`
/// zeroed.
fn row_key(tile: &Coord, inner: usize) -> Coord {
    let mut key = *tile;
    key.set(inner, 0);
    key
}

impl Tiling {
    /// The tile graph of this tiling at `params` (one value per parameter;
    /// panics otherwise, as [`Tiling::make_point`] does). Copies the tiling
    /// into the graph; a caller that already shares its tiling passes the
    /// `Arc` to [`TileGraph::new`].
    pub fn graph(&self, params: &[i64]) -> TileGraph {
        TileGraph::new(Arc::new(self.clone()), params)
    }
}

impl TileGraph {
    /// Derive the graph: scan the tile space a row at a time, index it by
    /// row, and link every tile to the neighbours its dependencies name.
    pub fn new(tiling: Arc<Tiling>, params: &[i64]) -> TileGraph {
        let inner = *tiling.loop_order().last().expect("tiling has >= 1 dim");
        let (d, t_cols) = (tiling.dims(), tiling.t_cols());
        let mut point = tiling.make_point(params);
        let mut rows: Vec<TileRow> = Vec::new();
        let mut row_of: HashMap<Coord, u32> = HashMap::new();
        let mut len = 0usize;
        let nest = tiling.tile_nest();
        nest.for_each_row(&mut point, |p, lb, ub| {
            let mut first = Coord::zeros(d);
            for k in 0..d {
                first.set(k, p[t_cols[k]] as i64);
            }
            first.set(inner, lb as i64);
            row_of.insert(row_key(&first, inner), rows.len() as u32);
            let row_len = usize::try_from(ub - lb + 1).unwrap_or(usize::MAX);
            rows.push(TileRow {
                first,
                len: row_len,
                start: len,
            });
            len = len.saturating_add(row_len);
        })
        .expect("tile enumeration failed");
        assert!(
            len < NO_TILE as usize,
            "{len} tiles overflow the tile graph's u32 indices"
        );
        let ndeps = tiling.deps().len();
        let mut links = vec![[NO_TILE; 2]; len * ndeps];
        for row in &rows {
            let key = row_key(&row.first, inner);
            for (dep_idx, dep) in tiling.deps().iter().enumerate() {
                let source_key = row_key(&key.add(&dep.delta), inner);
                let Some(&source) = row_of.get(&source_key) else {
                    continue;
                };
                let source = rows[source as usize];
                // Tile `lo + o` of the row reads tile `lo + o + delta_inner`,
                // at offset `o + shift` of the source row; the tiles whose
                // source offset lies in `0..source.len` have one.
                let shift = row.first[inner] + dep.delta[inner] - source.first[inner];
                let first = (-shift).max(0);
                let end = (row.len as i64).min(source.len as i64 - shift);
                for o in first..end {
                    let i = row.start + o as usize;
                    let s = source.start + (o + shift) as usize;
                    links[i * ndeps + dep_idx][0] = s as u32;
                    links[s * ndeps + dep_idx][1] = i as u32;
                }
            }
        }
        TileGraph {
            params: params.to_vec(),
            inner,
            rows,
            row_of,
            ndeps,
            links,
            classes: OnceLock::new(),
            cells: OnceLock::new(),
            edge_counts: OnceLock::new(),
            geometry_bytes: AtomicUsize::new(0),
            geometry_budget: AtomicUsize::new(GEOMETRY_BUDGET_BYTES),
            orderings: Mutex::default(),
            tiling,
        }
    }

    /// The tiling the graph was derived from.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// The parameter binding the graph was derived at.
    pub fn params(&self) -> &[i64] {
        &self.params
    }

    /// The coordinate of tile `tile`: its row's, found by a binary search,
    /// plus its offset along the row. Panics past the last tile.
    pub fn coord(&self, tile: usize) -> Coord {
        tile_at(&self.rows, self.inner, tile)
    }

    /// Every tile's coordinate, in index ([`Tiling::for_each_tile`]) order.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + Clone + '_ {
        let inner = self.inner;
        let rows = self.rows.iter();
        rows.flat_map(move |row| (0..row.len).map(move |o| row.tile(inner, o)))
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.rows.last().map_or(0, TileRow::end)
    }

    /// True for an empty tile space.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of `tile`, or `None` when the tile space has no such tile.
    pub fn index_of(&self, tile: &Coord) -> Option<usize> {
        if self.inner >= tile.dims() {
            return None;
        }
        let row = self.rows[*self.row_of.get(&row_key(tile, self.inner))? as usize];
        let offset = usize::try_from(tile[self.inner].checked_sub(row.first[self.inner])?).ok()?;
        (offset < row.len).then_some(row.start + offset)
    }

    /// How many sources tile `tile` links to: the edge count a scheduler
    /// waits for before the tile may run ([`Tiling::dep_total`]).
    pub fn dep_total(&self, tile: usize) -> usize {
        let links = &self.links[tile * self.ndeps..][..self.ndeps];
        links.iter().filter(|link| link[0] != NO_TILE).count()
    }

    /// Index of the tile that tile `tile` receives dependency `dep_idx`
    /// ([`Tiling::deps`]) from, when it exists.
    pub fn source(&self, tile: usize, dep_idx: usize) -> Option<usize> {
        self.link(tile, dep_idx, 0)
    }

    /// Index of the tile that reads tile `tile`'s edge `dep_idx`, when it
    /// exists.
    pub fn consumer(&self, tile: usize, dep_idx: usize) -> Option<usize> {
        self.link(tile, dep_idx, 1)
    }

    fn link(&self, tile: usize, dep_idx: usize, end: usize) -> Option<usize> {
        let link = self.links[tile * self.ndeps + dep_idx][end];
        (link != NO_TILE).then_some(link as usize)
    }

    /// The initial tiles (Section IV-K): those none of whose dependencies
    /// exist, by index, in tile-nest order.
    pub fn initial(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&i| self.dep_total(i) == 0)
    }

    /// The tiles sorted lexicographically on *flow-adjusted* coordinates (a
    /// descending dimension negated, so that a dependency always points
    /// from an earlier tile to a later one): the dimensions in `lead` most
    /// significant, the others after them in index order, and before them
    /// all, when `by_level`, the wavefront level (the sum of the adjusted
    /// coordinates). Every such order is a topological order of the tile
    /// DAG. Sorted by the first caller to ask for an order and kept (the
    /// last `MAX_ORDERINGS` orders asked for). Panics when `lead` names a
    /// dimension the problem does not have.
    pub fn ordering(&self, by_level: bool, lead: &[usize]) -> Arc<TileOrdering> {
        let d = self.tiling.dims();
        assert!(
            lead.iter().all(|&k| k < d),
            "order {lead:?} names a dimension beyond {d}"
        );
        let mut dims: Vec<usize> = Vec::with_capacity(d);
        for k in lead.iter().copied().chain(0..d) {
            if !dims.contains(&k) {
                dims.push(k);
            }
        }
        let key = (by_level, dims);
        let mut memo = self.orderings.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, found)) = memo.iter().find(|(k, _)| *k == key) {
            return found.clone();
        }
        let ordering = Arc::new(self.sort(by_level, &key.1));
        if memo.len() == MAX_ORDERINGS {
            memo.remove(0);
        }
        memo.push((key, ordering.clone()));
        ordering
    }

    fn sort(&self, by_level: bool, dims: &[usize]) -> TileOrdering {
        let directions = self.tiling.templates().directions();
        let flow = |k: usize| match directions[k] {
            Direction::Descending => -1,
            Direction::Ascending => 1,
        };
        // The level (or nothing), then the flow-adjusted coordinates. Distinct
        // tiles differ in some coordinate, so no two keys are equal. A row's
        // first key is worked out in full; along the row only the inner
        // coordinate moves, and with it its slot and the level.
        let slot = dims.iter().position(|&k| k == self.inner);
        let slot = 1 + slot.expect("an order names every dimension");
        let mut keyed = Vec::with_capacity(self.len());
        for row in &self.rows {
            let mut key = [0i64; MAX_DIMS + 1];
            for (s, &k) in key[1..].iter_mut().zip(dims) {
                *s = flow(k) * row.first[k];
            }
            key[0] = if by_level { key[1..].iter().sum() } else { 0 };
            for i in row.start..row.end() {
                keyed.push((key, i as u32));
                key[slot] += flow(self.inner);
                key[0] += i64::from(by_level) * flow(self.inner);
            }
        }
        keyed.sort_unstable();
        let order: Vec<u32> = keyed.into_iter().map(|(_, i)| i).collect();
        let mut rank = vec![0u32; order.len()];
        for (pos, &i) in order.iter().enumerate() {
            rank[i as usize] = pos as u32;
        }
        TileOrdering { order, rank }
    }

    /// The length of the longest path through the DAG: the latest finish of
    /// any tile when each tile `i` takes `duration(i)` and starts once every
    /// edge into it has arrived, the edge that tile `source` packs for
    /// dependency `dep` arriving `delay(source, consumer, dep)` after its
    /// source finished. Zero for an empty graph. Walks the tiles once in a
    /// topological order the graph keeps (`ordering(false, &[])`), so the
    /// executed critical path of a trace and the modelled one of a
    /// simulation are one routine.
    pub fn longest_path<T>(
        &self,
        duration: impl Fn(usize) -> T,
        delay: impl Fn(usize, usize, usize) -> T,
    ) -> T
    where
        T: Copy + Default + PartialOrd + std::ops::Add<Output = T>,
    {
        let mut finish = vec![T::default(); self.len()];
        let mut longest = T::default();
        for &tile in &self.ordering(false, &[]).order {
            let tile = tile as usize;
            let mut start = T::default();
            for dep in 0..self.ndeps {
                if let Some(source) = self.source(tile, dep) {
                    let arrival = finish[source] + delay(source, tile, dep);
                    if arrival > start {
                        start = arrival;
                    }
                }
            }
            finish[tile] = start + duration(tile);
            if finish[tile] > longest {
                longest = finish[tile];
            }
        }
        longest
    }

    fn classed(&self) -> &Classes {
        self.classes.get_or_init(|| {
            let point = self.tiling.make_point(&self.params);
            Classes::sort(&self.tiling, &self.rows, self.inner, &point)
        })
    }

    /// How many geometry classes the graph's tiles fall into: the number of
    /// tiles whose cells, edges and scan are actually walked. Sorts the
    /// tiles into their classes if nothing has yet — one signature per
    /// row, carried along it; no walk.
    pub fn classes(&self) -> usize {
        self.classed().walked.len()
    }

    /// The number of cells in tile `tile` ([`Tiling::tile_cell_count`]):
    /// its class's. Counted by the first caller, once and class by class
    /// (module docs); a graph nobody asks never counts.
    pub fn cells(&self, tile: usize) -> u128 {
        let classes = self.classed();
        let per_class = self.cells.get_or_init(|| {
            let mut point = self.tiling.make_point(&self.params);
            classes.count_cells(&self.tiling, (&self.rows, self.inner), &mut point)
        });
        per_class[classes.class_of[tile] as usize]
    }

    /// Whether the cells have been counted yet.
    pub fn cells_counted(&self) -> bool {
        self.cells.get().is_some()
    }

    /// The number of cells every tile packs for every dependency
    /// ([`EdgeLayout::count`] at that tile): what the tile at
    /// [`TileGraph::consumer`] unpacks, when there is one. The first call
    /// walks every class's edges, once; a walk whose bounds overflow is a
    /// fault of every call.
    ///
    /// [`EdgeLayout::count`]: crate::EdgeLayout::count
    pub fn edge_cells(&self) -> Result<EdgeCells<'_>, PolyError> {
        let classes = self.classed();
        let per_class = self.edge_counts.get_or_init(|| {
            let mut point = self.tiling.make_point(&self.params);
            classes.count_edges(&self.tiling, (&self.rows, self.inner), &mut point)
        });
        Ok(EdgeCells {
            class_of: &classes.class_of,
            per_class: per_class.as_ref().map_err(Clone::clone)?,
            ndeps: self.ndeps,
        })
    }

    /// The recorded geometry of tile `tile`: what [`Tiling::replay`] and
    /// the edge pack/unpack of an execution read in place of the polyhedral
    /// walks. It is the class's recording, borrowed — two array reads —
    /// once a tile of the class has been recorded; the call that records
    /// ([`Tiling::record`], outside any lock, so tiles of other classes
    /// never wait for the walk) returns it owned, having parked it for every
    /// later tile of the class, rank, thread and execution of the plan.
    /// Recordings are kept up to a fixed byte budget; past it the recording
    /// is returned owned and retained nowhere, so it lives exactly as long
    /// as its user.
    pub fn geometry(&self, tile: usize) -> Result<Cow<'_, Arc<TileGeom>>, PolyError> {
        let classes = self.classed();
        let slot = &classes.recordings[classes.class_of[tile] as usize];
        if let Some(geom) = slot.get() {
            return Ok(Cow::Borrowed(geom));
        }
        let mut point = self.tiling.make_point(&self.params);
        let geom = Arc::new(self.tiling.record(&self.coord(tile), &mut point)?);
        // A byte count and its bound: neither publishes anything.
        let bytes = geom.bytes();
        let held = self.geometry_bytes.fetch_add(bytes, Ordering::Relaxed);
        let within = held + bytes <= self.geometry_budget.load(Ordering::Relaxed);
        if !(within && slot.set(geom.clone()).is_ok()) {
            // Over the budget, or another thread parked the class first.
            self.geometry_bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
        // The class's recording when it has one — everyone's — and
        // otherwise this one, the caller's alone.
        Ok(Cow::Owned(slot.get().cloned().unwrap_or(geom)))
    }

    /// How many classes have a recording parked.
    pub fn recordings(&self) -> usize {
        let slots = self.classes.get().map_or(&[][..], |c| &c.recordings);
        slots.iter().filter(|slot| slot.get().is_some()).count()
    }

    /// Replace the byte budget of [`TileGraph::geometry`]'s recordings
    /// (those already parked stay). For tests of the over-the-budget path.
    #[doc(hidden)]
    pub fn set_geometry_budget(&self, bytes: usize) {
        self.geometry_budget.store(bytes, Ordering::Relaxed);
    }
}

/// The edge cells of a graph's tiles, counted; see
/// [`TileGraph::edge_cells`].
#[derive(Clone, Copy, Debug)]
pub struct EdgeCells<'a> {
    class_of: &'a [u32],
    /// `classes × ndeps`.
    per_class: &'a [u64],
    ndeps: usize,
}

impl EdgeCells<'_> {
    /// The number of cells tile `tile` packs for dependency `dep_idx`
    /// ([`Tiling::deps`]).
    pub fn get(&self, tile: usize, dep_idx: usize) -> u64 {
        assert!(dep_idx < self.ndeps, "dependency {dep_idx} out of range");
        self.per_class[self.class_of[tile] as usize * self.ndeps + dep_idx]
    }
}

impl std::fmt::Debug for TileGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileGraph")
            .field("params", &self.params)
            .field("tiles", &self.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{Template, TemplateSet};
    use crate::tiling::TilingBuilder;
    use dpgen_polyhedra::{ConstraintSystem, Space};

    /// The classing the graph carries along its rows, done the plain way —
    /// one full signature and one map probe per tile — as `(class_of,
    /// walked)`.
    fn sort_per_tile(tiling: &Tiling, tiles: &[Coord], point: &[i128]) -> (Vec<u32>, Vec<u32>) {
        let mut class_of = Vec::with_capacity(tiles.len());
        let mut walked = Vec::new();
        let mut by_signature: HashMap<Box<[i128]>, u32> = HashMap::new();
        let mut sig = Vec::new();
        for (i, t) in tiles.iter().enumerate() {
            let signed = tiling.signature(t, point, &mut sig).is_ok();
            let known = by_signature.get(&sig[..]).filter(|_| signed);
            let class = known.copied().unwrap_or_else(|| {
                let fresh = walked.len() as u32;
                if signed {
                    by_signature.insert(sig.as_slice().into(), fresh);
                }
                walked.push(i as u32);
                fresh
            });
            class_of.push(class);
        }
        (class_of, walked)
    }

    /// Everything the graph says, held to what the tiling says tile by tile.
    fn check(tiling: &Tiling, params: &[i64]) {
        let graph = tiling.graph(params);
        let mut point = tiling.make_point(params);
        let mut nest = Vec::new();
        tiling.for_each_tile(&mut point, |t| nest.push(t));
        assert_eq!(graph.coords().collect::<Vec<_>>(), nest);
        assert_eq!(
            (graph.len(), graph.is_empty()),
            (nest.len(), nest.is_empty())
        );
        assert_eq!(graph.params(), params);
        assert_eq!(graph.index_of(&Coord::zeros(tiling.dims() + 1)), None);
        assert_eq!(graph.index_of(&Coord::zeros(0)), None);

        let index_agrees = |t: &Coord, point: &mut [i128]| {
            let found = graph.index_of(t);
            assert_eq!(found.is_some(), tiling.tile_in_space(t, point), "tile {t}");
            found
        };
        for (i, t) in nest.iter().enumerate() {
            // A tile's coordinate and its index, each from the other.
            let tile = graph.coord(i);
            assert_eq!(tile, *t);
            assert_eq!(graph.index_of(&tile), Some(i), "tile {t}");
            // One step across every face: in the index iff in the space.
            for k in 0..tiling.dims() {
                for step in [-1, 1] {
                    let mut neighbour = *t;
                    neighbour.set(k, t[k] + step);
                    index_agrees(&neighbour, &mut point);
                }
            }
            assert_eq!(graph.dep_total(i), tiling.dep_total(&tile, &mut point));
            for (dep_idx, dep) in tiling.deps().iter().enumerate() {
                let source = index_agrees(&t.add(&dep.delta), &mut point);
                let consumer = index_agrees(&t.sub(&dep.delta), &mut point);
                assert_eq!(graph.source(i, dep_idx), source, "tile {t} dep {dep_idx}");
                assert_eq!(
                    graph.consumer(i, dep_idx),
                    consumer,
                    "tile {t} dep {dep_idx}"
                );
                if let Some(s) = source {
                    assert_eq!(graph.consumer(s, dep_idx), Some(i));
                }
                if let Some(c) = consumer {
                    assert_eq!(graph.source(c, dep_idx), Some(i));
                }
            }
        }
        let initial: Vec<usize> = (0..nest.len())
            .filter(|&i| tiling.dep_total(&nest[i], &mut point) == 0)
            .collect();
        assert_eq!(graph.initial().collect::<Vec<_>>(), initial);

        // An ordering is the tiles sorted as their key vectors sort — the
        // level if asked for, the leading dimensions, then every dimension,
        // each flow-adjusted — with `rank` its inverse; it is topological,
        // and sorted once.
        let d = tiling.dims();
        let directions = tiling.templates().directions();
        let flow = |t: &Coord, k: usize| match directions[k] {
            Direction::Descending => -t[k],
            Direction::Ascending => t[k],
        };
        for (by_level, lead) in [
            (false, vec![]),
            (false, vec![d - 1]),
            (true, vec![]),
            (true, vec![d - 1, 0]),
        ] {
            let ordering = graph.ordering(by_level, &lead);
            let key = |&i: &u32| {
                let t = &nest[i as usize];
                let level = by_level.then(|| (0..d).map(|k| flow(t, k)).sum());
                let dims = lead.iter().copied().chain(0..d);
                level
                    .into_iter()
                    .chain(dims.map(|k| flow(t, k)))
                    .collect::<Vec<i64>>()
            };
            let mut sorted: Vec<u32> = (0..nest.len() as u32).collect();
            sorted.sort_by_key(key);
            assert_eq!(ordering.order, sorted, "by_level {by_level}, lead {lead:?}");
            for (pos, &i) in ordering.order.iter().enumerate() {
                assert_eq!(ordering.rank[i as usize] as usize, pos);
                for dep_idx in 0..tiling.deps().len() {
                    if let Some(source) = graph.source(i as usize, dep_idx) {
                        assert!(ordering.rank[source] < ordering.rank[i as usize]);
                    }
                }
            }
            assert!(Arc::ptr_eq(&ordering, &graph.ordering(by_level, &lead)));
        }

        // The longest path is the latest finish of a recursive walk back
        // along the sources, each tile finishing after its slowest edge.
        let duration = |i: usize| 1 + (i % 7) as u64;
        let delay = |s: usize, c: usize, dep: usize| (s + 2 * c + dep) as u64 % 5;
        fn finish(
            graph: &TileGraph,
            i: usize,
            memo: &mut [Option<u64>],
            duration: &dyn Fn(usize) -> u64,
            delay: &dyn Fn(usize, usize, usize) -> u64,
        ) -> u64 {
            if let Some(f) = memo[i] {
                return f;
            }
            let sources = (0..graph.ndeps).filter_map(|dep| Some((graph.source(i, dep)?, dep)));
            let sources: Vec<(usize, usize)> = sources.collect();
            let start = sources
                .into_iter()
                .map(|(s, dep)| finish(graph, s, memo, duration, delay) + delay(s, i, dep))
                .max();
            let f = start.unwrap_or(0) + duration(i);
            memo[i] = Some(f);
            f
        }
        let mut memo = vec![None; nest.len()];
        let latest = (0..nest.len())
            .map(|i| finish(&graph, i, &mut memo, &duration, &delay))
            .max();
        assert_eq!(graph.longest_path(duration, delay), latest.unwrap_or(0));

        // Classing and recording count nothing: every tile's recording is its
        // class's — one recording per class, one class per recording — and
        // equals the tile's own.
        let class_of = graph.classed().class_of.clone();
        // Carried along the rows, the classes are the ones a full signature
        // and a map probe per tile give.
        let oracle = sort_per_tile(tiling, &nest, &point);
        assert_eq!((&class_of, &graph.classed().walked), (&oracle.0, &oracle.1));
        let mut recordings: Vec<Arc<TileGeom>> = Vec::new();
        for (i, t) in nest.iter().enumerate() {
            let geom = graph.geometry(i).unwrap().into_owned();
            assert_eq!(*geom, tiling.record(t, &mut point).unwrap(), "tile {t}");
            match recordings.get(class_of[i] as usize) {
                Some(first) => assert!(Arc::ptr_eq(first, &geom), "tile {t}"),
                None => {
                    assert_eq!(class_of[i] as usize, recordings.len(), "tile {t}");
                    assert!(!recordings.iter().any(|other| Arc::ptr_eq(other, &geom)));
                    recordings.push(geom);
                }
            }
        }
        assert_eq!(graph.classes(), recordings.len());
        assert_eq!(graph.recordings(), recordings.len());
        let parked: usize = recordings.iter().map(|geom| geom.bytes()).sum();
        assert_eq!(graph.geometry_bytes.load(Ordering::Relaxed), parked);
        assert!(!graph.cells_counted(), "nothing has asked for a count yet");

        let counted: Vec<u128> = nest
            .iter()
            .map(|t| tiling.tile_cell_count(t, &mut point))
            .collect();
        let cells: Vec<u128> = (0..nest.len()).map(|i| graph.cells(i)).collect();
        assert_eq!(cells, counted);
        assert_eq!(graph.cells_counted(), !nest.is_empty());
        assert_eq!(cells.iter().sum::<u128>(), tiling.total_cells(params));
        let edge_cells = graph.edge_cells().unwrap();
        for (i, t) in nest.iter().enumerate() {
            for (dep_idx, edge) in tiling.edges().iter().enumerate() {
                tiling.set_tile(t, &mut point);
                assert_eq!(
                    edge_cells.get(i, dep_idx) as u128,
                    edge.count(&mut point).unwrap(),
                    "tile {t} dep {dep_idx}"
                );
            }
        }
        // Counting moved no tile to another class.
        let classes = graph.classed();
        assert_eq!(classes.class_of, class_of);
        assert_eq!(graph.classes(), recordings.len());
        // One walk per class: each class's walked tile is its first.
        for (class, &i) in classes.walked.iter().enumerate() {
            let first = class_of.iter().position(|&c| c as usize == class);
            assert_eq!(first, Some(i as usize));
        }
    }

    /// A box with an optional diagonal cut and unit positive templates: the
    /// random polytopes of `tests/scheduler_invariants.rs`.
    fn cut_box(cut: Option<(i64, i64, i64)>, widths: (i64, i64)) -> TilingBuilder {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        if let Some((a, b, c)) = cut {
            sys.add_text(&format!("{a}*x + {b}*y <= {c}*N")).unwrap();
        }
        let templates = TemplateSet::new(
            2,
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
        )
        .unwrap();
        TilingBuilder::new(sys, templates, vec![widths.0, widths.1])
    }

    /// The LCS / Smith-Waterman square: three descending dependencies, one
    /// of them diagonal.
    fn lcs_box(width: i64) -> TilingBuilder {
        let space = Space::from_names(&["i", "j"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= i <= N").unwrap();
        sys.add_text("0 <= j <= N").unwrap();
        let templates = TemplateSet::new(
            2,
            vec![
                Template::new("up", &[-1, 0]),
                Template::new("left", &[0, -1]),
                Template::new("diag", &[-1, -1]),
            ],
        )
        .unwrap();
        TilingBuilder::new(sys, templates, vec![width; 2])
    }

    /// The 2-arm bandit's 4-D simplex.
    fn bandit2(width: i64) -> TilingBuilder {
        let space = Space::from_names(&["s1", "f1", "s2", "f2"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        for c in [
            "s1 >= 0",
            "f1 >= 0",
            "s2 >= 0",
            "f2 >= 0",
            "s1 + f1 + s2 + f2 <= N",
        ] {
            sys.add_text(c).unwrap();
        }
        let units = (0..4)
            .map(|k| {
                let mut offset = [0i64; 4];
                offset[k] = 1;
                Template::new(format!("r{k}"), &offset)
            })
            .collect();
        TilingBuilder::new(sys, TemplateSet::new(4, units).unwrap(), vec![width; 4])
    }

    /// The 3-string LCS cube: four descending templates, the diagonal one
    /// reaching across every face, so seven dependencies, most of them with
    /// a component along whichever dimension the rows run.
    fn lcs_cube(widths: [i64; 3]) -> TilingBuilder {
        let space = Space::from_names(&["i", "j", "k"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        for c in ["0 <= i <= N", "0 <= j <= N", "0 <= k <= N"] {
            sys.add_text(c).unwrap();
        }
        let templates = TemplateSet::new(
            3,
            vec![
                Template::new("i", &[-1, 0, 0]),
                Template::new("j", &[0, -1, 0]),
                Template::new("k", &[0, 0, -1]),
                Template::new("all", &[-1, -1, -1]),
            ],
        )
        .unwrap();
        TilingBuilder::new(sys, templates, widths.to_vec())
    }

    /// The six loop orders of three dimensions.
    const ORDERS_3: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];

    proptest::proptest! {
        #[test]
        fn graph_says_what_the_tiling_says(
            n in 3i64..14,
            w1 in 1i64..6,
            w2 in 1i64..6,
            a in 0i64..3,
            b in 0i64..3,
            swapped in proptest::bool::ANY,
            banded in proptest::bool::ANY,
            band in (-6i64..1, 0i64..6),
        ) {
            let cut = (a + b > 0).then_some((a, b, a + b + 1));
            let mut builder = cut_box(cut, (w1, w2));
            if swapped {
                builder = builder.loop_order(vec![1, 0]);
            }
            if banded {
                builder = builder.band(0, 1, band.0, band.1);
            }
            check(&builder.build().unwrap(), &[n]);
        }

        #[test]
        fn graph_says_what_the_tiling_says_in_three_dimensions(
            n in 1i64..7,
            widths in (1i64..4, 1i64..4, 1i64..4),
            order in 0usize..6,
        ) {
            let cube = lcs_cube([widths.0, widths.1, widths.2]).loop_order(ORDERS_3[order].to_vec());
            check(&cube.build().unwrap(), &[n]);
        }
    }

    #[test]
    fn graph_says_what_the_tiling_says_on_the_shapes_the_repo_runs() {
        // A diagonal band: rows of the tile nest start and end mid-grid.
        check(
            &cut_box(None, (3, 4)).band(0, 1, -5, 2).build().unwrap(),
            &[29],
        );
        // The innermost tile loop is x, so rows run along dimension 0.
        let swapped = cut_box(Some((1, 2, 2)), (2, 3)).loop_order(vec![1, 0]);
        check(&swapped.build().unwrap(), &[17]);
        // Three dependencies, one of them diagonal, all descending.
        check(&lcs_box(4).build().unwrap(), &[21]);
        // The diagonal dependency steps along the rows too: along k in
        // tile-nest order, along j under the loop order (k, i, j).
        check(&lcs_cube([2, 3, 2]).build().unwrap(), &[7]);
        let swapped = lcs_cube([3, 2, 1]).loop_order(vec![2, 0, 1]);
        check(&swapped.build().unwrap(), &[6]);
        // The 2-arm bandit's 4-D simplex.
        check(&bandit2(3).build().unwrap(), &[10]);
        // An empty tile space: no tile, no row, nothing initial, no cell.
        let tiling = cut_box(Some((1, 1, 1)), (3, 3)).build().unwrap();
        check(&tiling, &[-1]);
        assert!(tiling.graph(&[-1]).is_empty());
    }

    /// A band slides its rows along the inner dimension, so a dependency's
    /// source row can start after its consumer row or be shorter than it:
    /// where a row's links are clipped at either end. Both happen here, in
    /// both flow directions, and every link is still the tiling's.
    #[test]
    fn source_rows_that_start_later_or_run_shorter_link_by_offset() {
        for band in [
            cut_box(None, (2, 3)).band(0, 1, -7, 1),
            lcs_box(3).band(0, 1, -2, 8),
        ] {
            let band = band.build().unwrap();
            let graph = band.graph(&[23]);
            let (mut later, mut shorter) = (0, 0);
            for row in &graph.rows {
                let key = row_key(&row.first, graph.inner);
                for dep in band.deps() {
                    let source_key = row_key(&key.add(&dep.delta), graph.inner);
                    if let Some(&source) = graph.row_of.get(&source_key) {
                        let source = graph.rows[source as usize];
                        let (lo, source_lo) = (row.first[graph.inner], source.first[graph.inner]);
                        later += usize::from(source_lo > lo + dep.delta[graph.inner]);
                        shorter += usize::from(source.len < row.len);
                    }
                }
            }
            assert!(later > 0 && shorter > 0, "later {later}, shorter {shorter}");
            check(&band, &[23]);
        }
    }

    /// The shapes of `lcs_batched`, `bandit2_hybrid` and `compile_paper`'s
    /// banded Smith-Waterman: how many tiles are walked is a property of the
    /// shape, not of its size.
    #[test]
    fn benchmark_shapes_count_a_handful_of_classes() {
        let lcs = lcs_box(48).build().unwrap().graph(&[1535]);
        assert_eq!((lcs.classes(), lcs.len()), (4, 1024));
        let bandit = bandit2(8).build().unwrap().graph(&[48]);
        assert_eq!((bandit.classes(), bandit.len()), (5, 210));
        let banded = lcs_box(16).band(0, 1, -32, 32).build().unwrap();
        let banded = banded.graph(&[2399]);
        assert_eq!((banded.classes(), banded.len()), (8, 744));
    }

    /// What the graph keeps resident: the per-tile arrays, the row table
    /// and its map, by capacity (a map's buckets at its load factor of 7/8,
    /// one control byte each).
    fn resident_bytes(graph: &TileGraph) -> usize {
        use std::mem::size_of;
        let buckets = (graph.row_of.capacity() * 8 / 7).next_power_of_two();
        graph.links.capacity() * size_of::<[u32; 2]>()
            + graph.classed().class_of.capacity() * size_of::<u32>()
            + graph.rows.capacity() * size_of::<TileRow>()
            + buckets * (size_of::<(Coord, u32)>() + 1)
    }

    /// LCS 320² at width 1: a tile per cell, 321 rows of 321. Every tile's
    /// coordinate and index round-trip, and the graph keeps no more than 32
    /// bytes a tile — links and class, and a share of the rows.
    #[test]
    fn a_tile_per_cell_round_trips_and_keeps_under_32_bytes_a_tile() {
        let tiling = lcs_box(1).build().unwrap();
        let graph = tiling.graph(&[320]);
        assert_eq!((graph.len(), graph.rows.len()), (103_041, 321));
        let mut point = tiling.make_point(&[320]);
        let mut nest = Vec::with_capacity(graph.len());
        tiling.for_each_tile(&mut point, |t| nest.push(t));
        assert!(graph.coords().eq(nest.iter().copied()));
        for (i, t) in nest.iter().enumerate() {
            assert_eq!(graph.coord(i), *t);
            assert_eq!(graph.index_of(t), Some(i));
        }
        let per_tile = resident_bytes(&graph) as f64 / graph.len() as f64;
        assert!(per_tile <= 32.0, "{per_tile:.1} bytes a tile");
    }

    /// A run's options choose the order, and they come from outside: the
    /// graph keeps the last `MAX_ORDERINGS` and sorts an older one again.
    #[test]
    fn orderings_are_kept_up_to_a_bound() {
        let graph = bandit2(3).build().unwrap().graph(&[6]);
        let first = graph.ordering(false, &[0]);
        let leads = [[1, 0], [1, 2], [1, 3], [2, 0], [2, 1], [2, 3], [3, 0]];
        for lead in leads {
            graph.ordering(false, &lead);
        }
        assert_eq!(leads.len() + 1, MAX_ORDERINGS);
        assert!(Arc::ptr_eq(&first, &graph.ordering(false, &[0, 1, 2, 3])));
        graph.ordering(true, &[]);
        let again = graph.ordering(false, &[0]);
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(first.order, again.order);
        assert_eq!(graph.orderings.lock().unwrap().len(), MAX_ORDERINGS);
    }

    /// Threads released together onto a fresh graph's first `geometry` of
    /// one class may each record it; one recording is parked and charged,
    /// and every caller leaves with that one.
    #[test]
    fn racing_first_recordings_of_a_class_keep_one() {
        const THREADS: usize = 4;
        let graph = lcs_box(4).build().unwrap().graph(&[21]);
        // Tiles off both low faces are one class.
        let interior =
            (0..graph.len()).filter(|&i| graph.coord(i).as_slice().iter().all(|&t| t > 0));
        let interior: Vec<usize> = interior.take(THREADS).collect();
        assert_eq!(interior.len(), THREADS);
        let barrier = std::sync::Barrier::new(THREADS);
        let got: Vec<Arc<TileGeom>> = std::thread::scope(|scope| {
            let racers: Vec<_> = interior
                .iter()
                .map(|&i| {
                    let (graph, barrier) = (&graph, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        graph.geometry(i).unwrap().into_owned()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(got.iter().all(|geom| Arc::ptr_eq(geom, &got[0])));
        assert_eq!(graph.recordings(), 1);
        assert_eq!(graph.geometry_bytes.load(Ordering::Relaxed), got[0].bytes());
        assert!(matches!(graph.geometry(interior[0]), Ok(Cow::Borrowed(_))));
    }

    /// A binding whose signature overflows has no class to share: every
    /// tile is a class of its own, and the counts are still the tiling's.
    #[test]
    fn a_signature_that_overflows_is_counted_directly() {
        let space = Space::from_names(&["x"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        let templates = TemplateSet::new(1, vec![Template::new("r", &[1])]).unwrap();
        let tiling = TilingBuilder::new(sys, templates, vec![4]).build().unwrap();
        let row = [TileRow {
            first: Coord::from_slice(&[0]),
            len: 6,
            start: 0,
        }];

        let mut point = tiling.make_point(&[99]);
        let classed = Classes::sort(&tiling, &row, 0, &point);
        assert_eq!(classed.walked, [0]);
        let cells = classed.count_cells(&tiling, (&row, 0), &mut point);

        // As `geom.rs`'s `a_parameter_beyond_i64_is_an_error_not_a_panic`.
        point[tiling.param_cols()[0]] = i128::MAX;
        let mut sig = Vec::new();
        assert!(tiling.signature(&row[0].first, &point, &mut sig).is_err());
        let direct = Classes::sort(&tiling, &row, 0, &point);
        assert_eq!(direct.walked, [0, 1, 2, 3, 4, 5]);
        assert_eq!(direct.class_of, direct.walked);
        assert_eq!(direct.recordings.len(), 6);
        assert_eq!(direct.count_cells(&tiling, (&row, 0), &mut point), [4; 6]);
        assert_eq!(cells, [4]);
        assert_eq!(
            direct.count_edges(&tiling, (&row, 0), &mut point),
            Ok(vec![1; 6])
        );
    }

    /// An edge nest whose bound leaves i128 at the walked tile (`i >= -N -
    /// 4t` at N = i128::MAX, t = 1) is a typed fault of the count, not a
    /// panic.
    #[test]
    fn an_edge_nest_that_overflows_is_a_typed_fault() {
        let space = Space::from_names(&["x"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("-N <= x <= N").unwrap();
        let templates = TemplateSet::new(1, vec![Template::new("r", &[1])]).unwrap();
        let tiling = TilingBuilder::new(sys, templates, vec![4]).build().unwrap();
        let row = [TileRow {
            first: Coord::from_slice(&[1]),
            len: 1,
            start: 0,
        }];
        let mut point = tiling.make_point(&[0]);
        point[tiling.param_cols()[0]] = i128::MAX;
        let classed = Classes::sort(&tiling, &row, 0, &point);
        assert_eq!(
            classed.count_edges(&tiling, (&row, 0), &mut point),
            Err(PolyError::Overflow("addition"))
        );
    }

    /// A row's signature is advanced only between two ends that both sign:
    /// where the far end overflows, every tile of the row is signed in full,
    /// and the classes are still the per-tile ones.
    #[test]
    fn a_row_whose_far_end_overflows_is_signed_tile_by_tile() {
        let space = Space::from_names(&["x"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        // `K` of this row at tile `t` (width 1) and N = i64::MAX is
        // `C + (2^63 - 2) t + (2^63 - 1)^2`: it fits i128 up to t =
        // i64::MAX - 1 and overflows at i64::MAX.
        let wide = "9223372036854775806*x + 9223372036854775807*N + 55340232221128654842 >= 0";
        sys.add_text(wide).unwrap();
        let templates = TemplateSet::new(1, vec![Template::new("r", &[1])]).unwrap();
        let tiling = TilingBuilder::new(sys, templates, vec![1]).build().unwrap();
        let lo = i64::MAX - 4;
        let tiles: Vec<Coord> = (0..5).map(|o| Coord::from_slice(&[lo + o])).collect();
        let row = [TileRow {
            first: tiles[0],
            len: 5,
            start: 0,
        }];
        let point = tiling.make_point(&[i64::MAX]);
        let mut sig = Vec::new();
        assert!(tiling.signature(&tiles[3], &point, &mut sig).is_ok());
        assert!(tiling.signature(&tiles[4], &point, &mut sig).is_err());
        let classed = Classes::sort(&tiling, &row, 0, &point);
        assert_eq!(classed.walked, [0, 4]);
        let oracle = sort_per_tile(&tiling, &tiles, &point);
        assert_eq!((classed.class_of, classed.walked), oracle);
    }
}
