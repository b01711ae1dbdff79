/*
 * Compiled row loops behind the block API of repro.kernels.batch.
 *
 * Each exported function walks the rows of a (D, H) design block, one
 * design at a time, with a line-for-line copy of the per-design Python
 * kernel in repro/kernels/{battery,greedy,combined}.py.  The results are
 * bitwise identical to those kernels, which stay as the oracle, so the
 * copy keeps their exact IEEE operation order:
 *
 *   - build with -ffp-contract=off and without -ffast-math: no fused
 *     multiply-add, no reassociation;
 *   - Python's min(a, b) keeps a unless b < a, and max(a, b) keeps a
 *     unless b > a, so max(-0.0, 0.0) is -0.0; every min/max below is
 *     written in that argument order;
 *   - numpy.maximum(a, b) returns a only when a > b or a is NaN, so
 *     numpy.maximum(-0.0, 0.0) is +0.0 (np_maximum);
 *   - comparisons involving NaN are false in both languages, so NaN
 *     takes the same branches it takes in Python.
 *
 * Accumulators that the block API does not return (charged MWh, late
 * MWh, the stored-energy trace) are left out.  Arrays are C-contiguous
 * float64 / int64, rows of length n_hours.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EPSILON_MWH 1e-9
#define MIN_MOVE_MW 1e-9
#define HOURS_PER_DAY 24

static double np_maximum(double a, double b)
{
    return (a > b || a != a) ? a : b;
}

/* kernels.battery.renewables_only_run */
static void renewables_only_row(const double *demand, const double *supply,
                                int64_t n_hours, double *grid, double *surplus)
{
    for (int64_t h = 0; h < n_hours; h++) {
        grid[h] = np_maximum(demand[h] - supply[h], 0.0);
        surplus[h] = np_maximum(supply[h] - demand[h], 0.0);
    }
}

/* kernels.battery.battery_run; returns the discharged MWh. */
static double battery_row(const double *demand, const double *supply,
                          int64_t n_hours, double capacity, double floor_mwh,
                          double max_charge, double max_discharge,
                          double eta_charge, double eta_discharge,
                          double energy, double *grid, double *surplus)
{
    if (capacity == 0.0) {
        renewables_only_row(demand, supply, n_hours, grid, surplus);
        return 0.0;
    }
    double discharged = 0.0;
    for (int64_t h = 0; h < n_hours; h++) {
        double gap = supply[h] - demand[h];
        grid[h] = 0.0;
        surplus[h] = 0.0;
        if (gap >= 0.0) {
            if (gap > 0.0) {
                double power = gap < max_charge ? gap : max_charge;
                double limit = (capacity - energy) / eta_charge;
                if (power > limit)
                    power = limit;
                if (power < 0.0)
                    power = 0.0;
                energy += power * eta_charge;
                surplus[h] = gap - power;
            }
        } else {
            double requested = -gap;
            double power = requested < max_discharge ? requested : max_discharge;
            double limit = (energy - floor_mwh) * eta_discharge;
            if (power > limit)
                power = limit;
            if (power < 0.0)
                power = 0.0;
            energy -= power / eta_discharge;
            discharged += power;
            grid[h] = requested - power;
        }
    }
    return discharged;
}

void battery_rows(int64_t n_rows, int64_t n_hours, const double *demand,
                  const double *supply, const double *capacity,
                  const double *floor_mwh, const double *max_charge,
                  const double *max_discharge, const double *eta_charge,
                  const double *eta_discharge, const double *initial_energy,
                  double *grid, double *surplus, double *discharged)
{
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t off = r * n_hours;
        discharged[r] = battery_row(
            demand, supply + off, n_hours, capacity[r], floor_mwh[r],
            max_charge[r], max_discharge[r], eta_charge[r], eta_discharge[r],
            initial_energy[r], grid + off, surplus + off);
    }
}

/*
 * kernels.greedy.schedule_run for rows sharing one demand and intensity
 * trace.  movable is demand * ratio_profile by day; source_orders and
 * dest_orders are the stable per-day argsorts of -intensity / intensity
 * (computed once in Python, exactly as the oracle computes them).
 */
void schedule_rows(int64_t n_rows, int64_t n_days, const double *demand,
                   const double *supply, const double *intensity,
                   const double *capacity, const double *movable,
                   const int64_t *source_orders, const int64_t *dest_orders,
                   double *shifted, double *moved)
{
    int64_t n_hours = n_days * HOURS_PER_DAY;
    for (int64_t r = 0; r < n_rows; r++) {
        const double *supply_row = supply + r * n_hours;
        double *shifted_row = shifted + r * n_hours;
        double capacity_mw = capacity[r];
        double moved_total = 0.0;
        memcpy(shifted_row, demand, (size_t)n_hours * sizeof(double));
        for (int64_t day = 0; day < n_days; day++) {
            int64_t base = day * HOURS_PER_DAY;
            int deficit_any = 0, movable_any = 0;
            for (int h = 0; h < HOURS_PER_DAY; h++) {
                if (demand[base + h] - supply_row[base + h] > MIN_MOVE_MW)
                    deficit_any = 1;
                if (movable[base + h] > MIN_MOVE_MW)
                    movable_any = 1;
            }
            if (!(deficit_any && movable_any))
                continue;

            double day_demand[HOURS_PER_DAY], day_movable[HOURS_PER_DAY];
            memcpy(day_demand, demand + base, sizeof day_demand);
            memcpy(day_movable, movable + base, sizeof day_movable);
            const double *day_supply = supply_row + base;
            const double *day_intensity = intensity + base;
            const int64_t *dest_order = dest_orders + base;
            double moved_day = 0.0;

            for (int i = 0; i < HOURS_PER_DAY; i++) {
                int64_t src = source_orders[base + i];
                double deficit = day_demand[src] - day_supply[src];
                if (deficit <= MIN_MOVE_MW || day_movable[src] <= MIN_MOVE_MW)
                    continue;
                double intensity_src = day_intensity[src];
                for (int j = 0; j < HOURS_PER_DAY; j++) {
                    int64_t dst = dest_order[j];
                    if (dst == src)
                        continue;
                    if (day_intensity[dst] >= intensity_src)
                        break;
                    deficit = day_demand[src] - day_supply[src];
                    if (deficit <= MIN_MOVE_MW || day_movable[src] <= MIN_MOVE_MW)
                        break;
                    double surplus = day_supply[dst] - day_demand[dst];
                    double headroom = capacity_mw - day_demand[dst];
                    /* min(deficit, movable[src], surplus, headroom) */
                    double amount = deficit;
                    if (day_movable[src] < amount)
                        amount = day_movable[src];
                    if (surplus < amount)
                        amount = surplus;
                    if (headroom < amount)
                        amount = headroom;
                    if (amount <= MIN_MOVE_MW)
                        continue;
                    day_demand[src] -= amount;
                    day_demand[dst] += amount;
                    day_movable[src] -= amount;
                    moved_day += amount;
                }
            }
            if (moved_day > 0.0) {
                memcpy(shifted_row + base, day_demand, sizeof day_demand);
                moved_total += moved_day;
            }
        }
        moved[r] = moved_total;
    }
}

/* The deferral FIFO of kernels.combined.combined_run: one entry per
 * deferring hour at most, so n_hours slots never wrap. */
typedef struct {
    int64_t *deadline;
    double *amount;
    int64_t head, tail;
    double queued_total;
} fifo;

/* combined_run's run_queued: execute queued work up to budget. */
static double run_queued(fifo *q, double budget, int64_t now, int overdue_only)
{
    double executed = 0.0;
    while (q->head < q->tail && budget - executed > EPSILON_MWH) {
        int64_t deadline = q->deadline[q->head];
        double amount = q->amount[q->head];
        if (overdue_only && deadline > now)
            break;
        /* min(amount, budget - executed) */
        double take = amount;
        double remaining = budget - executed;
        if (remaining < take)
            take = remaining;
        executed += take;
        q->queued_total -= take;
        if (take >= amount - EPSILON_MWH)
            q->head++;
        else
            q->amount[q->head] = amount - take;
    }
    return executed;
}

/* Returns 0, or -1 when the FIFO cannot be allocated. */
int combined_rows(int64_t n_rows, int64_t n_hours, const double *demand,
                  const double *supply, const double *capacity,
                  const double *floor_mwh, const double *max_charge,
                  const double *max_discharge, const double *eta_charge,
                  const double *eta_discharge, const double *initial_energy,
                  const double *capacity_mw, const double *flexible_ratio,
                  int64_t deadline_hours, double *grid, double *surplus_out,
                  double *deferred_mwh, double *discharged_mwh,
                  int64_t *deferral_events)
{
    size_t slots = n_hours > 0 ? (size_t)n_hours : 1;
    fifo q;
    q.deadline = malloc(slots * sizeof(int64_t));
    q.amount = malloc(slots * sizeof(double));
    if (q.deadline == NULL || q.amount == NULL) {
        free(q.deadline);
        free(q.amount);
        return -1;
    }

    for (int64_t r = 0; r < n_rows; r++) {
        int64_t off = r * n_hours;
        const double *supply_row = supply + off;
        double *grid_row = grid + off;
        double *surplus_row = surplus_out + off;
        double cap = capacity[r];
        double ratio = flexible_ratio[r];

        if (ratio == 0.0) {
            /* combined_run delegates to battery_run (or, with no battery,
             * to renewables_only_run) */
            discharged_mwh[r] = battery_row(
                demand, supply_row, n_hours, cap, floor_mwh[r], max_charge[r],
                max_discharge[r], eta_charge[r], eta_discharge[r],
                initial_energy[r], grid_row, surplus_row);
            deferred_mwh[r] = 0.0;
            deferral_events[r] = 0;
            continue;
        }

        double floor_r = floor_mwh[r];
        double max_c = max_charge[r];
        double max_d = max_discharge[r];
        double eta_c = eta_charge[r];
        double eta_d = eta_discharge[r];
        double cmw = capacity_mw[r];
        double energy = initial_energy[r];
        double discharged = 0.0;
        int has_battery = cap > 0.0;
        double deferred_total = 0.0;
        int64_t events = 0;
        q.head = q.tail = 0;
        q.queued_total = 0.0;

        for (int64_t hour = 0; hour < n_hours; hour++) {
            double load = demand[hour];
            grid_row[hour] = 0.0;
            surplus_row[hour] = 0.0;

            /* 1. Deadlines first: overdue work must run now. */
            double headroom = cmw - load;
            if (headroom > EPSILON_MWH && q.queued_total > EPSILON_MWH)
                load += run_queued(&q, headroom, hour, 1);

            double gap = supply_row[hour] - load;
            if (gap > 0.0) {
                /* 2. Surplus: deferred work soaks it up before the battery. */
                headroom = cmw - load;
                double budget = gap; /* min(gap, headroom) */
                if (headroom < budget)
                    budget = headroom;
                if (budget > EPSILON_MWH && q.queued_total > EPSILON_MWH) {
                    double ran = run_queued(&q, budget, hour, 0);
                    load += ran;
                    gap = gap - ran; /* max(gap - ran, 0.0) */
                    if (0.0 > gap)
                        gap = 0.0;
                }
                if (has_battery && gap > 0.0) {
                    double power = gap < max_c ? gap : max_c;
                    double limit = (cap - energy) / eta_c;
                    if (power > limit)
                        power = limit;
                    if (power < 0.0)
                        power = 0.0;
                    energy += power * eta_c;
                    surplus_row[hour] = gap - power;
                } else {
                    surplus_row[hour] = gap;
                }
            } else {
                /* 3. Deficit: battery first, then deferral, then the grid. */
                double deficit = -gap;
                if (has_battery && deficit > 0.0) {
                    double power = deficit < max_d ? deficit : max_d;
                    double limit = (energy - floor_r) * eta_d;
                    if (power > limit)
                        power = limit;
                    if (power < 0.0)
                        power = 0.0;
                    energy -= power / eta_d;
                    discharged += power;
                    deficit -= power;
                }
                if (deficit > EPSILON_MWH) {
                    double deferrable = ratio * demand[hour];
                    double deferred = deficit; /* min(deficit, deferrable) */
                    if (deferrable < deferred)
                        deferred = deferrable;
                    if (deferred > EPSILON_MWH) {
                        load -= deferred;
                        deficit -= deferred;
                        q.deadline[q.tail] = hour + deadline_hours;
                        q.amount[q.tail] = deferred;
                        q.tail++;
                        q.queued_total += deferred;
                        deferred_total += deferred;
                        events++;
                    }
                }
                grid_row[hour] = deficit; /* max(deficit, 0.0) */
                if (0.0 > grid_row[hour])
                    grid_row[hour] = 0.0;
            }
        }
        deferred_mwh[r] = deferred_total;
        discharged_mwh[r] = discharged;
        deferral_events[r] = events;
    }
    free(q.deadline);
    free(q.amount);
    return 0;
}
