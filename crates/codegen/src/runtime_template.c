/* ------------------------------------------------------------------ */
/* Pre-written runtime scaffold: the tile table, OpenMP worker loop,   */
/* MPI edge exchange. Shared by every generated program; only the      */
/* problem-specific functions above differ.                            */
/* ------------------------------------------------------------------ */

static int dp_nranks, dp_rank;

/* The tile table. Startup walks the tile space once and numbers every
 * tile in scan order; every rank numbers alike, so a tile number names
 * the same tile everywhere. All per-tile state is an array indexed by
 * that number, sized from the tile count, and no step after startup
 * looks a coordinate up. */
static long dp_ntiles;
static long* dp_coords;         /* NDIMS coordinates per tile */
static long* dp_owner;          /* owning rank (the work midpoint while numbering) */
static int* dp_missing;         /* dependencies not yet delivered */
static dp_value_t** dp_edges;   /* NDEPS edge slots per tile, NULL until delivered */
static long* dp_consumer;       /* NDEPS consumer numbers per tile, -1 where none */

/* Ready set: a binary heap of tile numbers, ordered by the generated
 * dp_tile_before priority. */
static long* dp_heap;
static long dp_nready;

static long dp_tiles_owned;
static long dp_tiles_done;
static dp_value_t dp_checksum;
static omp_lock_t dp_sched_lock;

static int dp_ready_before(long a, long b) {
    return dp_tile_before(dp_coords + a * NDIMS, dp_coords + b * NDIMS);
}

static void dp_push_ready(long n) {
    long i = dp_nready++;
    while (i > 0 && dp_ready_before(n, dp_heap[(i - 1) / 2])) {
        dp_heap[i] = dp_heap[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    dp_heap[i] = n;
}

/* Pop the highest-priority ready tile, or -1 when none is ready. */
static long dp_pop_ready(void) {
    if (dp_nready == 0) return -1;
    long top = dp_heap[0], last = dp_heap[--dp_nready], i = 0;
    for (long c = 1; c < dp_nready; i = c, c = 2 * c + 1) {
        if (c + 1 < dp_nready && dp_ready_before(dp_heap[c + 1], dp_heap[c])) c++;
        if (!dp_ready_before(dp_heap[c], last)) break;
        dp_heap[i] = dp_heap[c];
    }
    dp_heap[i] = last;
    return top;
}

/* Deliver one edge into tile `n`'s slot for `dep`; the tile becomes
 * ready with its last missing dependency. */
static void dp_deliver_edge(long n, int dep, dp_value_t* data) {
    dp_edges[n * NDEPS + dep] = data;
    if (--dp_missing[n] == 0) dp_push_ready(n);
}

/* MPI edge exchange: edges are framed as [tile number | dep | len | payload]. */
static void dp_send_edge(int dest, long n, int dep, const dp_value_t* data, long len) {
    long header[3] = {n, dep, len};
    MPI_Request reqs[2];
    MPI_Isend(header, 3, MPI_LONG, dest, 0, MPI_COMM_WORLD, &reqs[0]);
    MPI_Isend((void*)data, (int)(len * (long)sizeof(dp_value_t)), MPI_BYTE,
              dest, 1, MPI_COMM_WORLD, &reqs[1]);
    MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE);
}

static int dp_poll_edges(void) {
    int flag = 0;
    MPI_Status st;
    MPI_Iprobe(MPI_ANY_SOURCE, 0, MPI_COMM_WORLD, &flag, &st);
    if (!flag) return 0;
    long header[3];
    MPI_Recv(header, 3, MPI_LONG, st.MPI_SOURCE, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    long len = header[2];
    dp_value_t* data = (dp_value_t*)malloc(sizeof(dp_value_t) * (size_t)DP_MAX(len, 1));
    MPI_Recv(data, (int)(len * (long)sizeof(dp_value_t)), MPI_BYTE,
             st.MPI_SOURCE, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    dp_deliver_edge(header[0], (int)header[1], data);
    return 1;
}

/* Number one tile and record its work midpoint: the work before it in
 * scan order (the paper's first Ehrhart polynomial, here a running
 * prefix sum) plus half its own. */
static long dp_total_work;
static void dp_number_visit(const long t[NDIMS], void* vctx) {
    long* cap = (long*)vctx;
    if (dp_ntiles == *cap) {
        *cap = 2 * *cap + 64;
        dp_coords = (long*)realloc(dp_coords, sizeof(long) * NDIMS * (size_t)*cap);
        dp_owner = (long*)realloc(dp_owner, sizeof(long) * (size_t)*cap);
    }
    const long work = tile_work(t);
    memcpy(dp_coords + dp_ntiles * NDIMS, t, sizeof(long) * NDIMS);
    dp_owner[dp_ntiles++] = dp_total_work + work / 2;
    dp_total_work += work;
}

/* Startup (Section IV-K): one walk of the tile space numbers the tiles;
 * then one cursor per dependency links each tile to its consumers. The
 * scan is lexicographic over the loop order (dp_scan_before) and a
 * translation keeps that order, so the sources t + delta of the tiles in
 * scan order ascend: the cursor only moves forward and stops on every
 * source that exists. Each tile's owner (the rank of its work midpoint,
 * Section IV-J) and the initial ready set follow by number. Serial; the
 * paper measures this below 0.5% of the run. */
static void dp_startup(void) {
    long cap = 0;
    dp_scan_tiles(dp_number_visit, &cap);
    dp_missing = (int*)calloc((size_t)DP_MAX(dp_ntiles, 1), sizeof(int));
    dp_edges = (dp_value_t**)calloc((size_t)DP_MAX(dp_ntiles * NDEPS, 1), sizeof(dp_value_t*));
    dp_consumer = (long*)malloc(sizeof(long) * (size_t)DP_MAX(dp_ntiles * NDEPS, 1));
    memset(dp_consumer, 0xff, sizeof(long) * (size_t)(dp_ntiles * NDEPS));
    dp_heap = (long*)malloc(sizeof(long) * (size_t)DP_MAX(dp_ntiles, 1));
    for (int e = 0; e < NDEPS; e++) {
        for (long n = 0, s = 0; n < dp_ntiles && s < dp_ntiles; n++) {
            long src[NDIMS];
            for (int k = 0; k < NDIMS; k++) src[k] = dp_coords[n * NDIMS + k] + dp_deps[e].delta[k];
            while (s < dp_ntiles && dp_scan_before(dp_coords + s * NDIMS, src)) s++;
            if (s < dp_ntiles && memcmp(dp_coords + s * NDIMS, src, sizeof src) == 0) {
                dp_missing[n]++;
                dp_consumer[s * NDEPS + e] = n;
            }
        }
    }
    for (long n = 0; n < dp_ntiles; n++) {
        long r = (dp_owner[n] * (long)dp_nranks) / DP_MAX(dp_total_work, 1);
        dp_owner[n] = r >= dp_nranks ? dp_nranks - 1 : r;
        if (dp_owner[n] != dp_rank) continue;
        dp_tiles_owned++;
        if (dp_missing[n] == 0) dp_push_ready(n);
    }
}

/* One worker: steps 1-6 of the Section V-A loop. */
static void dp_worker(void) {
    dp_value_t* V = (dp_value_t*)malloc(sizeof(dp_value_t) * TILE_BUF_CELLS);
    for (;;) {
        if (omp_test_lock(&dp_sched_lock)) {
            while (dp_poll_edges()) { /* drain incoming edges */ }
            long n = dp_pop_ready();
            omp_unset_lock(&dp_sched_lock);
            if (n < 0) {
                long done;
                #pragma omp atomic read
                done = dp_tiles_done;
                if (done >= dp_tiles_owned) break;
                continue;
            }
            const long* t = dp_coords + n * NDIMS;
            /* Unpack buffered edges into ghost cells. */
            memset(V, 0, sizeof(dp_value_t) * TILE_BUF_CELLS);
            for (int dep = 0; dep < NDEPS; dep++) {
                dp_value_t* data = dp_edges[n * NDEPS + dep];
                if (!data) continue;
                long src[NDIMS];
                for (int k = 0; k < NDIMS; k++) src[k] = t[k] + dp_deps[dep].delta[k];
                dp_deps[dep].unpack(src, V, data);
                free(data);
            }
            /* Execute the tile; it returns the sum of its cells. */
            {
                dp_value_t dp_cs = execute_tile(t, V);
                #pragma omp atomic
                dp_checksum += dp_cs;
            }
            /* Pack each valid outgoing edge into a buffer of its bound. */
            for (int dep = 0; dep < NDEPS; dep++) {
                long c = dp_consumer[n * NDEPS + dep];
                if (c < 0) continue;
                dp_value_t* data =
                    (dp_value_t*)malloc(sizeof(dp_value_t) * (size_t)dp_deps[dep].max_cells);
                long len = dp_deps[dep].pack(t, V, data);
                if (dp_owner[c] == dp_rank) {
                    omp_set_lock(&dp_sched_lock);
                    dp_deliver_edge(c, dep, data);
                    omp_unset_lock(&dp_sched_lock);
                } else {
                    dp_send_edge((int)dp_owner[c], c, dep, data, len);
                    free(data);
                }
            }
            #pragma omp atomic
            dp_tiles_done++;
        }
    }
    free(V);
}

int main(int argc, char** argv) {
    MPI_Init(&argc, &argv);
    MPI_Comm_size(MPI_COMM_WORLD, &dp_nranks);
    MPI_Comm_rank(MPI_COMM_WORLD, &dp_rank);
/*@PARSE_PARAMS@*/
    omp_init_lock(&dp_sched_lock);
    const double dp_t0 = omp_get_wtime();
    dp_startup();
    const double dp_t1 = omp_get_wtime();
    #pragma omp parallel
    {
        dp_worker();
    }
    const double dp_t2 = omp_get_wtime();
    MPI_Barrier(MPI_COMM_WORLD);
    if (dp_rank == 0) {
        printf("tiles done: %ld\n", dp_tiles_done);
        /* Integers print exactly, floating types to ten places. */
        if ((dp_value_t)0.5 != 0)
            printf("checksum: %.10f\n", (double)dp_checksum);
        else if ((dp_value_t)-1 < (dp_value_t)1)
            printf("checksum: %lld\n", (long long)dp_checksum);
        else
            printf("checksum: %llu\n", (unsigned long long)dp_checksum);
        /* Seconds in startup and in the worker region (E9). */
        printf("startup: %.6f\nrun: %.6f\n", dp_t1 - dp_t0, dp_t2 - dp_t1);
    }
    omp_destroy_lock(&dp_sched_lock);
    MPI_Finalize();
    return 0;
}
